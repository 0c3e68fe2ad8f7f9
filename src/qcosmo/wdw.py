"""Closed-form Wheeler-DeWitt machinery: special functions, propagation
kernels, fifth-time Green's functions, Bogoliubov coefficients, and
zero-energy ODE solutions.

Every quadrature here is the plain trapezoid rule on the whole real line,
one vectorised numpy sum. Each integrand is analytic in a strip |Im t| < a
about the real axis and negligible at both ends of the summed range, and
there the rule's error falls like exp(-2 pi a / h) in the step h
(Trefethen & Weideman, SIAM Review 56, 2014), so no adaptive refinement is
needed.

- The modified Bessel functions K0(x) and K_{i nu}(x) (imaginary order has
  no standard library implementation) come from their cosh integrals
  exp(-x cosh t) cos(nu t), whose strip is |Im t| < pi/2. The sum runs
  over |t| <= arccosh(1 + 40/x), where the integrand is below e^-40 of its
  peak, with the step min(0.1, 2 pi / (|nu| + 4 pi sqrt(x)),
  pi^2 / (40 + pi |nu|)). K0 is then good to about 1e-15 relative, and
  K_{i nu} to about 1e-14 K0(x) for |nu| <= MAX_NU, the bound that keeps
  the sum under 54,000 nodes.
- The flat-space Green's function is the proper-time integral of the free
  kernel, taken along a contour tilted by eps. Transformed exactly to its
  phase variable theta, the tilt becomes a smooth damping factor.
  Spacelike, theta = m sinh s with s rotated by i pi/2 (the arc at
  infinity vanishes because eps > 0) turns the oscillatory integral into
  2 int_0^inf exp(-m cosh s) cos(eps m sinh s) ds, the cosh integral with
  one more cosine; it equals 2 K0(m sqrt(1 + eps^2)) for every eps.
  Timelike, theta = m + u^2 with u = e^{-i pi/4} w gives a Gaussian decay
  in w, and w = e^s makes the integrand decay at both ends, analytic for
  |Im s| < pi/4, so one complex sum gives both parts. Evaluations at
  eps and eps/2 are extrapolated to zero tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, DomainTruncationError, NonConvergenceError, ShapeError
from .models import MinisuperspaceKind, MinisuperspaceParams, minisuperspace_v_eff

# |nu| <= MAX_NU keeps the K_{i nu} sum under 54,000 nodes for every finite x > 0
MAX_NU = 100.0


def _trapezoid(f, lo: float, hi: float, h: float):
    """h * sum of f(k h) over the integers k with lo <= k h <= hi.

    The trapezoid rule over the real line for an integrand ``f`` (a numpy
    ufunc expression) that is negligible outside [lo, hi]; the nodes sit on
    the lattice h Z, so a symmetric range gives symmetric nodes.
    """
    k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    return h * np.sum(f(h * k))


# ---------------------------------------------------------------------------
# modified Bessel functions by quadrature

def _cosh_integral(x: float, nu: float = 0.0, eps: float = 0.0) -> float:
    """The integral over the real line of exp(-x cosh t) cos(nu t) cos(eps x sinh t)."""
    r = math.sqrt(x)
    t_max = 2.0 * math.asinh(math.sqrt(20.0) / r)  # x cosh t_max = x + 40
    h = min(0.1, 2.0 * math.pi / (abs(nu) + 4.0 * math.pi * r),
            math.pi**2 / (40.0 + math.pi * abs(nu)))

    # x cosh t = x + 2u^2 and x sinh t = 2uv: exp(-x) comes out exactly, no digits are
    # lost to cancellation, and nothing overflows for any finite x > 0 and |t| <= t_max
    def f(t):
        u, v = r * np.sinh(t / 2.0), r * np.cosh(t / 2.0)
        return np.exp(-2.0 * u * u) * np.cos(nu * t) * np.cos(2.0 * eps * u * v)
    return math.exp(-x) * float(_trapezoid(f, -t_max, t_max, h))


def _check_x(x: float, name: str) -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires finite x > 0, got {x}")


def bessel_k0(x: float) -> float:
    """K0(x) = integral_0^inf exp(-x cosh t) dt, for finite x > 0."""
    _check_x(x, "K0")
    return 0.5 * _cosh_integral(x)


def bessel_k_imag_order(nu: float, x: float) -> float:
    """K_{i nu}(x) = integral_0^inf exp(-x cosh t) cos(nu t) dt; real valued.

    Takes finite x > 0 and |nu| <= MAX_NU.
    """
    _check_x(x, "K_inu")
    if not abs(nu) <= MAX_NU:
        raise DomainError(f"K_inu requires |nu| <= {MAX_NU}, got {nu}")
    return 0.5 * _cosh_integral(x, nu)


# ---------------------------------------------------------------------------
# flat fifth-time Green's function

def _greens_tilted(sigma_sq: float, lam: float, eps: float) -> complex:
    """One tilted-contour evaluation of (1/4pi) * I(eps); see module docstring."""
    m_sq = lam * abs(sigma_sq) / (1.0 + eps**2)
    m = math.sqrt(m_sq)
    if m < 1e-12:
        raise NonConvergenceError("lightcone singularity: X^2 = T^2")
    if sigma_sq > 0:
        # I = 2 int_0^inf cos(theta) exp(-eps S)/S dtheta, S = sqrt(theta^2 + m^2),
        # on the rotated contour: the even line integral of exp(-m cosh s) cos(eps m sinh s)
        return complex(_cosh_integral(m, eps=eps) / (4.0 * np.pi))

    # timelike branch: theta runs from m upward; theta = m + u^2 with u rotated by
    # -pi/4 and then u = e^s. The integrand is below e^-40 of its size outside
    # [lo, hi]: it falls like e^s below and like exp(-m e^{2s}) above. Its strip
    # |Im s| < pi/4 makes the step 0.1 good to about exp(-pi^2 / 0.2) = e^-49.
    def g(s):
        w2 = np.exp(2.0 * s)
        return np.exp(s - (1.0 - 1j * eps) * m * w2) / np.sqrt(2.0 - 1j * w2)
    lo = -40.0 - 0.5 * max(0.0, math.log(m))
    hi = 0.5 * math.log(40.0 / m) + 1.0
    i_val = 4.0 * np.exp(-1j * (m + np.pi / 4.0)) * _trapezoid(g, lo, hi, 0.1)
    return complex(i_val / (4.0 * np.pi))


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
    sigma_sq = (X - T) * (X + T)  # X^2 - T^2 without an overflow of either square
    if not math.isfinite(Lambda * sigma_sq):
        raise DomainError("Lambda (X^2 - T^2) must be finite")
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
