"""Closed-form Wheeler-DeWitt machinery: special functions, propagation
kernels, fifth-time Green's functions, Bogoliubov coefficients, and
zero-energy ODE solutions.

The modified Bessel functions are evaluated from their cosh integral
representations by adaptive quadrature (imaginary order has no standard
library implementation). The flat-space Green's function is the proper-time
integral of the free kernel, taken along a slightly tilted contour; the
integral is transformed exactly to its phase variable, where the tilt
becomes a smooth damping factor, and the small tilt bias is removed by
extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, DomainTruncationError, NonConvergenceError, ShapeError
from .models import MinisuperspaceKind, MinisuperspaceParams, minisuperspace_v_eff


# ---------------------------------------------------------------------------
# modified Bessel functions by quadrature

def _damped_cosh(x: float, t: float) -> float:
    """exp(-x cosh t) without overflow warnings in the dead tail."""
    if t > 50.0:  # cosh(50) ~ 2.6e21: the integrand is identically 0 here
        return 0.0
    e = x * np.cosh(t)
    return np.exp(-e) if e < 745.0 else 0.0


def bessel_k0(x: float) -> float:
    """K0(x) = integral_0^inf exp(-x cosh t) dt, for x > 0."""
    if x <= 0:
        raise DomainError(f"K0 requires x > 0, got {x}")
    val, _ = quad(lambda t: _damped_cosh(x, t), 0.0, np.inf,
                  epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def bessel_k_imag_order(nu: float, x: float) -> float:
    """K_{i nu}(x) = integral_0^inf exp(-x cosh t) cos(nu t) dt; real valued."""
    if x <= 0:
        raise DomainError(f"K_inu requires x > 0, got {x}")
    val, _ = quad(lambda t: _damped_cosh(x, t) * np.cos(nu * t), 0.0, np.inf,
                  epsabs=1e-14, epsrel=1e-11, limit=400)
    return val


# ---------------------------------------------------------------------------
# flat fifth-time Green's function

def _greens_tilted(sigma_sq: float, lam: float, eps: float) -> complex:
    """One tilted-contour evaluation of (1/4pi) * I(eps); see module docstring."""
    m_sq = lam * abs(sigma_sq) / (1.0 + eps**2)
    m = np.sqrt(m_sq)
    if m < 1e-12:
        raise NonConvergenceError("lightcone singularity: X^2 = T^2")
    if sigma_sq > 0:
        # I = 2 * int_0^inf cos(theta) exp(-eps S)/S dtheta, S = sqrt(theta^2 + m^2)
        def g(theta):
            s = np.hypot(theta, m)
            return np.exp(-eps * s) / s
        val, _ = quad(g, 0.0, np.inf, weight="cos", wvar=1.0,
                      epsabs=1e-12, limit=400, limlst=300)
        return complex(2.0 * val / (4.0 * np.pi))
    # timelike branch: theta runs from m upward; substitute theta = m + u^2 and
    # rotate u by -pi/4, after which the integrand decays like a Gaussian
    def f(w):
        return np.exp(-(1.0 - 1j * eps) * m * w**2) / np.sqrt(2.0 * m - 1j * m * w**2)
    re, _ = quad(lambda w: f(w).real, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    im, _ = quad(lambda w: f(w).imag, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    i_val = 4.0 * np.exp(-1j * (m + np.pi / 4.0)) * np.sqrt(m) * (re + 1j * im)
    return i_val / (4.0 * np.pi)


def flat_greens_quadrature(T: float, X: float, Lambda: float, eps: float = 1e-3) -> complex:
    """Proper-time quadrature of the flat minisuperspace Green's function.

    Spacelike separation (X^2 > T^2) reproduces K0(sqrt(Lambda (X^2-T^2)))/2pi;
    the timelike branch is the corresponding outgoing Hankel form. ``eps`` is
    the contour tilt angle; evaluations at eps and eps/2 are extrapolated to
    zero tilt.
    """
    if T == 0.0 and X == 0.0:
        raise DomainError("Green's function undefined at the coincident point")
    if not 0.0 < eps <= 0.1:
        raise DomainError("eps must lie in (0, 0.1]")
    if Lambda <= 0:
        raise DomainError("Lambda must be positive")
    sigma_sq = X**2 - T**2
    if sigma_sq == 0.0:
        raise NonConvergenceError("lightcone singularity: X^2 = T^2")
    g1 = _greens_tilted(sigma_sq, Lambda, eps)
    g2 = _greens_tilted(sigma_sq, Lambda, eps / 2.0)
    return 2.0 * g2 - g1


# ---------------------------------------------------------------------------
# analytic kernels

def free_kernel(x: float, x_prime: float, tau: float) -> complex:
    """Free-particle propagator with the principal branch of sqrt(1/2pi i tau)."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    pref = np.exp(-1j * np.pi / 4.0) / np.sqrt(2.0 * np.pi * tau)
    return pref * np.exp(1j * (x - x_prime) ** 2 / (2.0 * tau))


def inverted_oscillator_kernel(y: float, y_prime: float, tau: float, omega: float) -> complex:
    """Propagator of the inverted harmonic potential -omega^2 y^2 / 2."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    if omega == 0.0:
        return free_kernel(y, y_prime, tau)
    s = np.sinh(omega * tau)
    pref = np.sqrt(omega / (2.0j * np.pi * s))
    phase = (1j * omega / (2.0 * s)) * ((y**2 + y_prime**2) * np.cosh(omega * tau) - 2.0 * y * y_prime)
    return pref * np.exp(phase)


def inverted_linear_kernel(x: float, x_prime: float, tau: float, f: float) -> complex:
    """Propagator of the linear potential -f x (uniform acceleration)."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    pref = np.exp(-1j * np.pi / 4.0) / np.sqrt(2.0 * np.pi * tau)
    phase = (x - x_prime) ** 2 / (2.0 * tau) + f * tau * (x + x_prime) / 2.0 - f**2 * tau**3 / 24.0
    return pref * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Bogoliubov coefficients

@dataclass(frozen=True)
class BogoliubovPair:
    alpha: float
    beta: float
    k: float


def bogoliubov_coeffs(k: float) -> BogoliubovPair:
    """Coefficients linking the two mode decompositions of the flat model.

    alpha^2 = e^{pi k} / (2 sinh pi k) and beta^2 = e^{-pi k} / (2 sinh pi k),
    evaluated as 1/(1 - e^{-2 pi k}) and e^{-2 pi k}/(1 - e^{-2 pi k}) so the
    normalization alpha^2 - beta^2 = 1 is exact in floating point.
    """
    if k <= 0:
        raise DomainError("k must be positive")
    e = np.exp(-2.0 * np.pi * k)
    d = -np.expm1(-2.0 * np.pi * k)
    return BogoliubovPair(alpha=float(np.sqrt(1.0 / d)), beta=float(np.sqrt(e / d)), k=k)


# ---------------------------------------------------------------------------
# zero-energy ODE solutions

@dataclass
class WdwSolution:
    grid: np.ndarray
    psi: np.ndarray
    p_phi: float
    residual: float
    v_eff: np.ndarray


def integrate_zero_energy(w, domain, init, num_points: int = 2001):
    """Integrate psi'' = W(x) psi with fixed-step RK4 on a uniform grid.

    Returns (grid, psi, residual) where the residual is the maximum
    centered-difference defect over interior points.
    """
    x0, x1 = float(domain[0]), float(domain[1])
    if not x1 > x0:
        raise ShapeError("domain must be an increasing pair")
    if num_points < 3:
        raise ShapeError("need at least 3 grid points")
    grid = np.linspace(x0, x1, num_points)
    h = grid[1] - grid[0]

    # overflow here is the condition being detected, not an error in itself
    with np.errstate(over="ignore", invalid="ignore"):
        w_vals = np.asarray(w(grid), dtype=complex)
    if not np.all(np.isfinite(w_vals)):
        finite = np.isfinite(w_vals)
        safe = grid[finite][-1] if finite.any() else None
        raise DomainTruncationError(
            f"effective potential overflowed on the domain; largest safe x is {safe}",
            safe_bound=safe,
        )

    psi = np.empty(num_points, dtype=complex)
    state = np.array([init[0], init[1]], dtype=complex)
    psi[0] = state[0]

    def rhs(x, s):
        return np.array([s[1], w(x) * s[0]], dtype=complex)

    for i in range(num_points - 1):
        x = grid[i]
        k1 = rhs(x, state)
        k2 = rhs(x + h / 2.0, state + h / 2.0 * k1)
        k3 = rhs(x + h / 2.0, state + h / 2.0 * k2)
        k4 = rhs(x + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        psi[i + 1] = state[0]

    defect = np.abs(
        (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / h**2 - w_vals[1:-1] * psi[1:-1]
    )
    return grid, psi, float(np.max(defect)) if defect.size else 0.0


def wdw_solve_ode(
    kind: MinisuperspaceKind,
    params: MinisuperspaceParams,
    p_phi: float,
    domain,
    init=(1.0, 0.0),
    num_points: int = 2001,
) -> WdwSolution:
    """Zero-energy solution of the chosen minisuperspace constraint.

    The second-order form is psi'' = 2 V_eff(x) psi with V_eff from
    :func:`qcosmo.models.minisuperspace_v_eff` at the supplied separation
    constant ``p_phi``.
    """
    eff_params = replace(params, p_phi=p_phi)
    v_eff = minisuperspace_v_eff(kind, eff_params)
    grid, psi, residual = integrate_zero_energy(
        lambda x: 2.0 * v_eff(x), domain, init, num_points
    )
    return WdwSolution(grid=grid, psi=psi, p_phi=p_phi, residual=residual,
                       v_eff=np.asarray(v_eff(grid), dtype=float))
