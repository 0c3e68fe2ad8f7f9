import functools
import math

import numpy as np
import pytest

from qcosmo import models, wdw
from qcosmo.errors import DomainError, DomainTruncationError, NonConvergenceError
from qcosmo.models import MinisuperspaceKind, MinisuperspaceParams


def k0_series(x, nmax=40):
    """Independent small-argument oracle: ascending series for K0."""
    gamma = 0.5772156649015328606
    i0 = sum((x * x / 4) ** k / math.factorial(k) ** 2 for k in range(nmax))
    harmonic, total = 0.0, 0.0
    for k in range(1, nmax):
        harmonic += 1.0 / k
        total += (x * x / 4) ** k / math.factorial(k) ** 2 * harmonic
    return -(np.log(x / 2) + gamma) * i0 + total


# ---------------------------------------------------------------------------
# Bessel functions

def test_k0_against_series_oracle():
    for x in (0.1, 0.5, 1.0, 2.0, 4.0):
        assert wdw.bessel_k0(x) == pytest.approx(k0_series(x), rel=1e-8)


def test_k0_at_one():
    assert wdw.bessel_k0(1.0) == pytest.approx(0.42102444, abs=1e-7)


def test_k0_asymptotic_ratio():
    x = 20.0
    asym = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
    assert wdw.bessel_k0(x) / asym == pytest.approx(1.0, abs=1e-2)


def test_k0_monotone_and_domain():
    assert wdw.bessel_k0(2.0) < wdw.bessel_k0(1.0)
    with pytest.raises(DomainError):
        wdw.bessel_k0(0.0)


def test_k_imag_order_reduces_to_k0():
    for x in (0.5, 1.0, 3.0):
        assert abs(wdw.bessel_k_imag_order(0.0, x) - wdw.bessel_k0(x)) <= 1e-8


def test_k_imag_order_bounded_by_k0():
    for nu in (0.3, 1.0, 2.5, 5.0):
        for x in (0.5, 1.0, 2.0):
            assert abs(wdw.bessel_k_imag_order(nu, x)) <= wdw.bessel_k0(x) + 1e-12


def test_k_imag_order_satisfies_wdw_equation():
    """psi(q) = K_{ip}(2c e^q) solves -psi'' + (4 c^2 e^{2q} - p^2) psi = 0."""
    c, p = 1.0, 1.5
    h = 1e-3
    for q in np.linspace(-3.0, 0.0, 7):
        psi = lambda qq: wdw.bessel_k_imag_order(p, 2.0 * c * np.exp(qq))
        second = (psi(q + h) - 2.0 * psi(q) + psi(q - h)) / h**2
        residual = -second + (4.0 * c**2 * np.exp(2 * q) - p**2) * psi(q)
        assert abs(residual) <= 1e-4


# ---------------------------------------------------------------------------
# flat Green's function

def test_greens_spacelike_matches_k0_form():
    # scipy's K0, not wdw.bessel_k0: the quadrature computes the latter's sum itself
    scipy_special = pytest.importorskip("scipy.special")
    for lam in (0.5, 1.0, 2.0):
        for s2 in (0.25, 1.0, 4.0):
            g = wdw.flat_greens_quadrature(0.0, np.sqrt(s2), lam)
            ref = scipy_special.k0(np.sqrt(lam * s2)) / (2 * np.pi)
            assert abs(g.imag) <= 1e-10
            assert g.real == pytest.approx(ref, rel=1e-12)


def test_greens_reference_value():
    g = wdw.flat_greens_quadrature(0.0, 1.0, 1.0)
    assert g.real == pytest.approx(0.06700812050849712, rel=1e-12)  # K0(1) / 2 pi


def test_greens_time_reflection_symmetry():
    a = wdw.flat_greens_quadrature(0.3, 1.1, 1.0)
    b = wdw.flat_greens_quadrature(-0.3, 1.1, 1.0)
    assert a == b


def test_greens_scaling_relation():
    s = 2.0
    a = wdw.flat_greens_quadrature(0.3, 1.1, 1.0)
    b = wdw.flat_greens_quadrature(s * 0.3, s * 1.1, 1.0 / s**2)
    assert abs(a - b) <= 1e-9 * abs(a)


def test_greens_timelike_matches_hankel():
    scipy_special = pytest.importorskip("scipy.special")
    for lam, t2 in [(1.0, 1.0), (2.0, 0.5), (0.5, 4.0)]:
        g = wdw.flat_greens_quadrature(np.sqrt(t2), 0.0, lam)
        ref = -0.25j * scipy_special.hankel2(0, np.sqrt(lam * t2))
        assert abs(g - ref) <= 1e-12 * abs(ref)


def test_greens_error_contract():
    with pytest.raises(NonConvergenceError):
        wdw.flat_greens_quadrature(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        wdw.flat_greens_quadrature(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# analytic kernels

@functools.lru_cache(maxsize=4)
def gauss_legendre(n):
    """The n-point Gauss-Legendre nodes and weights, built once per n: leggauss(4000) takes
    seconds, and three tests compose kernels with it. The callers only read the arrays."""
    return np.polynomial.legendre.leggauss(n)


def contour_compose(kernel_fn, y, y_prime, tau1, tau2, L=8.0, rays=3.0, n=4000):
    """Chapman-Kolmogorov integral along a rotated-tail contour.

    The integrand is entire and oscillatory; bending the last stretch of the
    real line by exp(i pi/4) turns the quadratic phase into Gaussian decay,
    so plain Gauss-Legendre panels converge quickly.
    """
    nodes, weights = gauss_legendre(n)

    def integrate(seg_from, seg_to, direction):
        mid = (seg_to + seg_from) / 2.0
        half = (seg_to - seg_from) / 2.0
        total = 0.0 + 0.0j
        for xk, wk in zip(nodes, weights):
            z = mid + half * xk
            point = z if direction is None else direction(z)
            jac = 1.0 if direction is None else np.exp(1j * np.pi / 4)
            total += wk * kernel_fn(y, point, tau1) * kernel_fn(point, y_prime, tau2) * jac
        return total * half

    center = integrate(-L, L, None)
    right = integrate(0.0, rays, lambda s: L + np.exp(1j * np.pi / 4) * s)
    left = integrate(0.0, rays, lambda s: -L - np.exp(1j * np.pi / 4) * s)
    return center + right + left


def test_inverted_oscillator_free_limit():
    k_small = wdw.inverted_oscillator_kernel(0.7, -0.4, 1.0, 1e-4)
    k_free = wdw.free_kernel(0.7, -0.4, 1.0)
    assert abs(k_small - k_free) <= 1e-4 * abs(k_free)


def test_inverted_oscillator_symmetry():
    a = wdw.inverted_oscillator_kernel(0.7, -0.4, 0.9, 1.3)
    b = wdw.inverted_oscillator_kernel(-0.4, 0.7, 0.9, 1.3)
    assert a == pytest.approx(b, rel=1e-14)


def test_inverted_oscillator_composition():
    y, y_prime = 0.5, -0.3
    direct = wdw.inverted_oscillator_kernel(y, y_prime, 0.6, 1.0)
    composed = contour_compose(
        lambda a, b, t: wdw.inverted_oscillator_kernel(a, b, t, 1.0), y, y_prime, 0.3, 0.3
    )
    assert abs(composed - direct) <= 1e-3 * abs(direct)


def test_inverted_linear_free_limit():
    assert wdw.inverted_linear_kernel(0.2, 1.1, 0.7, 0.0) == pytest.approx(
        wdw.free_kernel(0.2, 1.1, 0.7), rel=1e-14
    )


def test_inverted_linear_modulus():
    for tau in (0.2, 1.0, 3.0):
        k = wdw.inverted_linear_kernel(0.4, -2.0, tau, 1.7)
        assert abs(k) == pytest.approx(1.0 / np.sqrt(2 * np.pi * tau), rel=1e-12)


def test_inverted_linear_composition():
    x, x_prime, f = 0.4, -0.2, 0.8
    direct = wdw.inverted_linear_kernel(x, x_prime, 0.6, f)
    composed = contour_compose(
        lambda a, b, t: wdw.inverted_linear_kernel(a, b, t, f), x, x_prime, 0.3, 0.3
    )
    assert abs(composed - direct) <= 1e-3 * abs(direct)


def test_kernels_reject_bad_tau():
    with pytest.raises(DomainError):
        wdw.inverted_oscillator_kernel(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        wdw.inverted_linear_kernel(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Bogoliubov coefficients

def test_bogoliubov_reference_point():
    pair = wdw.bogoliubov_coeffs(1.0)
    # independent route: the textbook forms with explicit exp/sinh
    alpha_direct = np.sqrt(np.exp(np.pi) / (2.0 * np.sinh(np.pi)))
    beta_direct = np.sqrt(np.exp(-np.pi) / (2.0 * np.sinh(np.pi)))
    assert pair.alpha == pytest.approx(alpha_direct, abs=1e-12)
    assert pair.beta == pytest.approx(beta_direct, abs=1e-12)
    assert pair.alpha == pytest.approx(1.000935, abs=1e-6)
    assert pair.beta == pytest.approx(0.043254, abs=1e-6)


def test_bogoliubov_normalization():
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        pair = wdw.bogoliubov_coeffs(k)
        assert abs(pair.alpha**2 - pair.beta**2 - 1.0) <= 1e-12


def test_bogoliubov_large_k():
    pair = wdw.bogoliubov_coeffs(8.0)
    assert pair.alpha == pytest.approx(1.0, abs=1e-10)
    assert pair.beta == pytest.approx(np.exp(-np.pi * 8.0), rel=1e-6)
    with pytest.raises(DomainError):
        wdw.bogoliubov_coeffs(0.0)


# ---------------------------------------------------------------------------
# zero-energy ODE

def test_ode_zero_potential_linear():
    grid, psi, residual = wdw.integrate_zero_energy(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 2.0), (0.0, 1.0), 2001
    )
    assert np.max(np.abs(psi.real - grid)) <= 1e-8
    assert residual <= 1e-5


def test_ode_constant_potential_cosh():
    grid, psi, _ = wdw.integrate_zero_energy(
        lambda x: np.ones_like(np.asarray(x, dtype=float)), (0.0, 3.0), (1.0, 0.0), 3001
    )
    assert np.max(np.abs(psi.real - np.cosh(grid))) <= 1e-6


def test_wdw_solution_inv_liouville_wavelength_shrinks():
    params = MinisuperspaceParams(Lambda=1.0, k_curv=0.0, v_volume=1.0)
    sol = wdw.wdw_solve_ode(
        MinisuperspaceKind.INV_LIOUVILLE, params, p_phi=1.0,
        domain=(-1.0, 1.2), init=(1.0, 0.0), num_points=24001,
    )
    signs = np.sign(sol.psi.real)
    crossings = sol.grid[np.nonzero(np.diff(signs) != 0)[0]]
    assert crossings.size >= 5
    spacings = np.diff(crossings)
    assert all(b < a for a, b in zip(spacings, spacings[1:]))


def test_wdw_solution_reports_residual_and_potential():
    params = MinisuperspaceParams(Lambda=0.0, k_curv=1.0, v_volume=1.0, p_phi=0.0)
    sol = wdw.wdw_solve_ode(
        MinisuperspaceKind.KANTOWSKI_SACHS, params, p_phi=2.0,
        domain=(-2.0, 0.0), init=(1.0, 0.0), num_points=4001,
    )
    v = models.minisuperspace_v_eff(
        MinisuperspaceKind.KANTOWSKI_SACHS,
        MinisuperspaceParams(Lambda=0.0, k_curv=1.0, v_volume=1.0, p_phi=2.0),
    )
    assert np.allclose(sol.v_eff, v(sol.grid))
    assert sol.residual < 1e-2  # h^2-limited defect, reported not gated


def test_wdw_ode_overflow_reports_safe_bound():
    params = MinisuperspaceParams(Lambda=1.0, k_curv=0.0, v_volume=1.0)
    with pytest.raises(DomainTruncationError) as info:
        wdw.wdw_solve_ode(
            MinisuperspaceKind.INV_LIOUVILLE, params, p_phi=0.0,
            domain=(0.0, 200.0), init=(1.0, 0.0), num_points=2001,
        )
    assert info.value.safe_bound is not None
    assert 0.0 < info.value.safe_bound < 200.0
