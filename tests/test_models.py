import math

import numpy as np
import pytest

from qcosmo import bases, models, pauli, presets, vqe
from qcosmo.bases import BasisKind
from qcosmo.errors import ConfigError, DomainError, InconsistentInitialDataError
from qcosmo.models import (
    ConformalScalarParams,
    DarkEnergySingleRadiusParams,
    DarkEnergyTwoRadiusParams,
    GaugeFieldParams,
    MinisuperspaceKind,
    MinisuperspaceParams,
    StarobinskyParams,
)


def swap_matrix(d):
    """Permutation exchanging the two d-dimensional tensor factors."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def hermitian_deviation(h):
    return np.max(np.abs(h - h.conj().T))


# ---------------------------------------------------------------------------
# Starobinsky

def test_starobinsky_ground_and_terms():
    h = models.starobinsky_hamiltonian(StarobinskyParams(), 4)
    ground = presets.reference_row("table1", "exact_ground")["reference"]
    assert vqe.exact_ground(h) == pytest.approx(ground, abs=1e-6)
    assert len(pauli.decompose(h)) == presets.reference_row("table1", "pauli_terms")["reference"]


def test_starobinsky_free_limit_psd():
    h = models.starobinsky_hamiltonian(StarobinskyParams(M1_4=0.0), 4)
    assert vqe.exact_ground(h) >= -1e-12


# ---------------------------------------------------------------------------
# dark energy, single radius

def test_dark_energy_table_values():
    params = DarkEnergySingleRadiusParams()
    for n_qubits, rel in [(4, 1e-6), (5, 1e-5), (6, 0.01)]:
        expected = presets.reference_row(f"table2-{n_qubits}q", "exact_ground")["reference"]
        h = models.dark_energy_single_radius(params, n_qubits)
        assert vqe.exact_ground(h) == pytest.approx(expected, rel=rel)


def test_dark_energy_hermitian():
    h = models.dark_energy_single_radius(DarkEnergySingleRadiusParams(), 5)
    assert hermitian_deviation(h) <= 1e-12


# ---------------------------------------------------------------------------
# dark energy, two radii

def test_two_radius_swap_symmetry_potential():
    v = models.dark_energy_two_radius_potential(DarkEnergyTwoRadiusParams())
    for a, b in [(0.3, -0.8), (1.2, 0.4), (-2.0, 1.0)]:
        assert v(a, b) == pytest.approx(v(b, a), rel=1e-12)


def test_two_radius_swap_commutes():
    h = models.dark_energy_two_radius(DarkEnergyTwoRadiusParams(), 2)
    s = swap_matrix(4)
    assert np.max(np.abs(h @ s - s @ h)) <= 1e-10 * np.max(np.abs(h))


def test_two_radius_hermitian_and_reports():
    h = models.dark_energy_two_radius(DarkEnergyTwoRadiusParams(), 3)
    assert hermitian_deviation(h) <= 1e-12 * max(1.0, np.max(np.abs(h)))
    assert np.isfinite(vqe.exact_ground(h))


def test_two_radius_matches_scalar_potential():
    # diagonal-basis check: potential matrix elements equal the scalar form
    params = DarkEnergyTwoRadiusParams()
    h = models.dark_energy_two_radius(params, 2, BasisKind.POSITION)
    from qcosmo.bases import build_momentum_squared, build_position

    grid = np.real(np.diagonal(build_position(BasisKind.POSITION, 4)))
    p2 = build_momentum_squared(BasisKind.POSITION, 4)
    kin = np.kron(p2, np.eye(4)) / 2 + np.kron(np.eye(4), p2) / 2
    v = models.dark_energy_two_radius_potential(params)
    vdiag = np.array([v(x1, x2) for x1 in grid for x2 in grid])
    assert np.max(np.abs(h - kin - np.diag(vdiag))) <= 1e-8 * np.max(np.abs(h))


# ---------------------------------------------------------------------------
# dark matter

def test_model_one_pauli_counts():
    for qpm, count in [(2, 25), (3, 361)]:
        h = models.dark_matter_model_one(ConformalScalarParams(), qpm)
        assert len(pauli.decompose(h)) == count


def test_model_one_decoupled_limit():
    params = ConformalScalarParams(lambda_X=0.0, lambda_Y=0.0, lambda_mix=0.0)
    h = models.dark_matter_model_one(params, 2)
    assert vqe.exact_ground(h) == pytest.approx(1.0, abs=1e-12)


def test_model_one_separates_without_mix():
    params = ConformalScalarParams(lambda_mix=0.0)
    h = models.dark_matter_model_one(params, 2)
    from qcosmo.bases import build_momentum_squared, build_position

    x = build_position(BasisKind.OSCILLATOR, 4)
    p2 = build_momentum_squared(BasisKind.OSCILLATOR, 4)
    h1 = p2 / 2 + x @ x / 2 + 0.005 * np.linalg.matrix_power(x, 4)
    single = np.linalg.eigvalsh(h1)[0]
    assert vqe.exact_ground(h) == pytest.approx(2 * single, abs=1e-10)


def test_model_one_swap_symmetry():
    h = models.dark_matter_model_one(ConformalScalarParams(), 2)
    s = swap_matrix(4)
    assert np.max(np.abs(h @ s - s @ h)) <= 1e-10


def test_model_two_theta_zero_form():
    """With theta = 0 the Hamiltonian matches the direct construction."""
    from qcosmo.bases import build_momentum, build_position

    params = GaugeFieldParams(g_X=0.2, g_Y=0.3, lambda_mix=0.01, theta_Y=0.0)
    d = 4
    x = build_position(BasisKind.OSCILLATOR, d)
    p = build_momentum(BasisKind.OSCILLATOR, d)
    x2 = x @ x
    x4 = x2 @ x2
    eye = np.eye(d)
    a2 = (p + x2) @ (p + x2)
    expected = (
        np.kron(p @ p / 2 + 0.2**2 * x4, eye)
        + np.kron(eye, p @ p / 2 + 0.3**2 * x4)
        + 0.01 * np.kron(a2, a2)
    )
    h = models.dark_matter_model_two(params, 2)
    assert np.max(np.abs(h - expected)) <= 1e-12


def test_model_two_kinetic_only_psd():
    params = GaugeFieldParams(g_X=0.0, g_Y=0.0, lambda_mix=0.0, theta_Y=0.0)
    h = models.dark_matter_model_two(params, 2)
    assert vqe.exact_ground(h) >= -1e-10


def test_model_two_hermitian_random_params():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params = GaugeFieldParams(
            lambda_mix=rng.uniform(-0.05, 0.05),
            a_scale=rng.uniform(0.5, 2.0),
            g_X=rng.uniform(0, 1),
            g_Y=rng.uniform(0, 1),
            theta_Y=rng.uniform(-1, 1),
        )
        h = models.dark_matter_model_two(params, 2)
        assert hermitian_deviation(h) <= 1e-12 * max(1.0, np.max(np.abs(h)))


def test_model_two_swap_symmetry_symmetric_params():
    params = GaugeFieldParams(g_X=0.4, g_Y=0.4, theta_Y=0.0)
    h = models.dark_matter_model_two(params, 2)
    s = swap_matrix(4)
    assert np.max(np.abs(h @ s - s @ h)) <= 1e-10 * np.max(np.abs(h))


# ---------------------------------------------------------------------------
# shared spectral properties

def test_constant_shift_moves_ground_exactly():
    h = models.starobinsky_hamiltonian(StarobinskyParams(), 3)
    g0 = vqe.exact_ground(h)
    c = -2.375
    g1 = vqe.exact_ground(h + c * np.eye(h.shape[0]))
    assert g1 - g0 == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# minisuperspace

def test_minisuperspace_inv_liouville_free_limit():
    params = MinisuperspaceParams(Lambda=0.0, p_phi=0.0)
    h = models.minisuperspace_hamiltonian(MinisuperspaceKind.INV_LIOUVILLE, params, 4)
    from qcosmo.bases import build_momentum_squared

    p2 = build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 16)
    assert np.max(np.abs(h - p2 / 2)) <= 1e-12


def test_minisuperspace_inv_oscillator_formula():
    params = MinisuperspaceParams(Lambda=0.7, p_phi=1.3, v_volume=2.0)
    v = models.minisuperspace_v_eff(MinisuperspaceKind.INV_OSCILLATOR, params)
    for y in (0.5, 1.0, 2.0, 3.7):
        expected = -(4.0 / 3.0) * 1.3**2 / y**2 - (8.0 / 3.0) * 4.0 * 0.7 * y**2
        assert v(y) == pytest.approx(expected, rel=1e-14)


def test_minisuperspace_neg_lambda_bounded_below():
    params = MinisuperspaceParams(Lambda=-0.5, k_curv=-2.5, v_volume=1.0)
    h = models.minisuperspace_hamiltonian(MinisuperspaceKind.NEG_LAMBDA_MORSE, params, 5)
    ground = vqe.exact_ground(h)
    v = models.minisuperspace_v_eff(MinisuperspaceKind.NEG_LAMBDA_MORSE, params)
    grid = np.linspace(-10, 3, 4001)
    assert np.isfinite(ground)
    assert ground >= np.min(v(grid)) - 1e-9


def test_minisuperspace_default_volumes():
    assert MinisuperspaceParams().volume(MinisuperspaceKind.INV_LIOUVILLE) == pytest.approx((2 * np.pi) ** 3)
    assert MinisuperspaceParams().volume(MinisuperspaceKind.MORSE_S2) == pytest.approx(4 * np.pi)
    assert MinisuperspaceParams(v_volume=3.0).volume(MinisuperspaceKind.MORSE_S2) == 3.0


# ---------------------------------------------------------------------------
# Friedmann evolution

def test_friedmann_de_sitter():
    lam = 0.3
    traj = models.friedmann_evolve(
        lambda phi: 0.0, (1.0, 0.0, 0.0), Lambda=lam, k=0.0, t_span=(0.0, 5.0), dt=1e-3
    )
    expected = np.exp(np.sqrt(lam / 3.0) * traj.t)
    assert np.max(np.abs(traj.a - expected) / expected) <= 1e-6
    assert traj.max_constraint_residual <= 1e-6


def _stiff_matter_error(dt):
    """Largest error of (a, phi, phidot) against the closed form of a free massless field.

    With V = Lambda = k = 0, H0 = phidot0 / sqrt(6) and s = 1 + 3 H0 t, the solution is
    a = s^(1/3), phidot = phidot0 / s and phi = (sqrt(6) / 3) ln s.
    """
    phidot0 = 1.0
    traj = models.friedmann_evolve(lambda phi: 0.0, (1.0, 0.0, phidot0),
                                   t_span=(0.0, 5.0), dt=dt, dpotential=lambda phi: 0.0)
    s = 1.0 + 3.0 * (phidot0 / np.sqrt(6.0)) * traj.t
    exact = (s ** (1.0 / 3.0), np.sqrt(6.0) / 3.0 * np.log(s), phidot0 / s)
    got = (traj.a, traj.phi, traj.phi_dot)
    return max(np.max(np.abs(g - e)) for g, e in zip(got, exact))


def test_friedmann_stiff_matter_closed_form():
    """The integrator's own error: small at dt 0.05, and falling like dt^4 when dt halves."""
    coarse, fine = _stiff_matter_error(0.1), _stiff_matter_error(0.05)
    assert fine <= 5e-7
    assert coarse / fine >= 12.0


def test_friedmann_static():
    traj = models.friedmann_evolve(
        lambda phi: 0.0, (2.0, 0.1, 0.0), Lambda=0.0, k=0.0, t_span=(0.0, 3.0), dt=1e-3
    )
    assert np.max(np.abs(traj.a - 2.0)) <= 1e-12
    assert np.max(np.abs(traj.phi - 0.1)) <= 1e-12


def test_friedmann_starobinsky_slow_roll_then_ringdown():
    params = StarobinskyParams()
    traj = models.friedmann_evolve(
        models.starobinsky_potential(params),
        (1.0, -10.0, 0.0),
        Lambda=0.0,
        k=0.0,
        t_span=(0.0, 400.0),
        dt=0.01,
        dpotential=models.starobinsky_potential_deriv(params),
    )
    phi = traj.phi
    crossings = np.nonzero(np.diff(np.sign(phi)) != 0)[0]
    assert crossings.size >= 3, "field should reach zero and oscillate"
    first = crossings[0]
    # monotone roll up to the first crossing
    assert np.all(np.diff(phi[:first]) > 0)
    # oscillation amplitude decays between successive extrema
    tail = phi[first:]
    peaks = [
        abs(tail[i]) for i in range(1, len(tail) - 1)
        if (tail[i] - tail[i - 1]) * (tail[i + 1] - tail[i]) < 0
    ]
    assert len(peaks) >= 2
    assert peaks[-1] < peaks[0] / 2
    assert traj.max_constraint_residual <= 1e-6


def _per_row_residual(traj, potential, Lambda, k):
    """The constraint residual written out row by row: the oracle of the vectorised one."""
    rows = []
    for a, phi, phidot in zip(traj.a, traj.phi, traj.phi_dot):
        rad = Lambda + 0.5 * phidot**2 + potential(phi) - 3.0 * k / a**2
        hub = np.sqrt(max(rad, 0.0) / 3.0)
        rows.append(abs(-3.0 * hub**2 - 3.0 * k / a**2 + Lambda + 0.5 * phidot**2 + potential(phi)))
    return np.array(rows)


_STARO = StarobinskyParams()
_FRIEDMANN_RUNS = {
    "de-sitter": {"potential": lambda phi: 0.0, "initial": (1.0, 0.0, 0.0), "Lambda": 0.3,
                  "t_span": (0.0, 5.0), "dt": 1e-3},
    "starobinsky": {"potential": models.starobinsky_potential(_STARO), "initial": (1.0, -10.0, 0.0),
                    "t_span": (0.0, 400.0), "dt": 0.01,
                    "dpotential": models.starobinsky_potential_deriv(_STARO)},
}


@pytest.mark.parametrize("name", list(_FRIEDMANN_RUNS))
def test_friedmann_residual_matches_per_row_oracle(name):
    run = _FRIEDMANN_RUNS[name]
    traj = models.friedmann_evolve(**run)
    oracle = _per_row_residual(traj, run["potential"], run.get("Lambda", 0.0), 0.0)
    assert traj.constraint_residual.shape == oracle.shape
    assert np.max(np.abs(traj.constraint_residual - oracle)) <= 1e-12
    assert traj.max_constraint_residual <= 1e-12


def _friedmann_numpy_scalar_loop(potential, initial, t_span, dt, Lambda=0.0, k=0.0,
                                  dpotential=None):
    """The RK4 loop as it ran on the numpy scalars the potentials return: the oracle of
    the plain-float loop, which must give the same trajectory bit for bit."""
    a, phi, phidot = (float(x) for x in initial)
    t, t1 = map(float, t_span)
    if dpotential is None:
        def dpotential(phi):
            h = 1e-6 * (1.0 + abs(phi))
            return (potential(phi + h) - potential(phi - h)) / (2.0 * h)

    def rhs(a, phi, phidot):
        rad = Lambda + 0.5 * phidot**2 + potential(phi) - 3.0 * k / a**2
        h = math.sqrt(max(rad, 0.0) / 3.0)
        return a * h, phidot, -3.0 * h * phidot - dpotential(phi)

    rows = [(t, a, phi, phidot)]
    for _ in range(int(np.ceil((t1 - t) / dt))):
        step = min(dt, t1 - t)
        hs, s6 = 0.5 * step, step / 6.0
        k1 = rhs(a, phi, phidot)
        k2 = rhs(a + hs * k1[0], phi + hs * k1[1], phidot + hs * k1[2])
        k3 = rhs(a + hs * k2[0], phi + hs * k2[1], phidot + hs * k2[2])
        k4 = rhs(a + step * k3[0], phi + step * k3[1], phidot + step * k3[2])
        a = a + s6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        phi = phi + s6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        phidot = phidot + s6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t = t + step
        rows.append((t, a, phi, phidot))
    return np.array(rows).T


def _numpy_starobinsky(params):
    """The Starobinsky potential and its derivative on numpy scalars, frozen with the loop."""
    def v(phi):
        return params.M1_4 * (1.0 - np.exp(phi / params.M2)) ** 2

    def dv(phi):
        e = np.exp(phi / params.M2)
        return -2.0 * params.M1_4 * (1.0 - e) * e / params.M2
    return v, dv


@pytest.mark.parametrize("with_derivative", [True, False, "dark-energy"])
def test_friedmann_bit_identical_to_numpy_scalar_loop(with_derivative):
    """Starobinsky with its derivative, and with the finite-difference fallback. The
    dark-energy case runs a potential that returns numpy scalars, through the fallback,
    so it pins the stage function alone against the frozen loop."""
    if with_derivative == "dark-energy":
        run = frozen = {"potential": models.dark_energy_potential(DarkEnergySingleRadiusParams()),
                        "initial": (1.0, 5.0, 0.0), "Lambda": 1.0, "t_span": (0.0, 50.0),
                        "dt": 0.01}
    else:
        run = dict(_FRIEDMANN_RUNS["starobinsky"])
        potential, dpotential = _numpy_starobinsky(_STARO)
        frozen = {**run, "potential": potential, "dpotential": dpotential}
    if with_derivative is False:
        del run["dpotential"], frozen["dpotential"]
        run["t_span"] = frozen["t_span"] = (0.0, 100.0)
    traj = models.friedmann_evolve(**run)
    oracle = _friedmann_numpy_scalar_loop(**frozen)
    for got, want in zip((traj.t, traj.a, traj.phi, traj.phi_dot), oracle):
        assert np.array_equal(got, want)


# the field range that the benchmark's Starobinsky run visits, from -10 to about 0.31
_STARO_FLOATS = [0.0, -0.0, *np.random.default_rng(31).uniform(-10.5, 1.0, 10_000).tolist()]


def test_starobinsky_float_path_matches_numpy_scalars():
    """A Python float takes Python float arithmetic and gives the numpy-scalar bits."""
    v, dv = models.starobinsky_potential(_STARO), models.starobinsky_potential_deriv(_STARO)
    frozen_v, frozen_dv = _numpy_starobinsky(_STARO)
    for fast, frozen in ((v, frozen_v), (dv, frozen_dv)):
        got = [fast(phi) for phi in _STARO_FLOATS]
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [float(frozen(phi)).hex() for phi in _STARO_FLOATS]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_starobinsky_array_path_is_unchanged(dtype):
    phi = np.array(_STARO_FLOATS, dtype=dtype)
    v, dv = models.starobinsky_potential(_STARO), models.starobinsky_potential_deriv(_STARO)
    for fast, frozen in zip((v, dv), _numpy_starobinsky(_STARO)):
        got, want = fast(phi), frozen(phi)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_starobinsky_float_overflow_raises():
    """Where numpy would return inf with a RuntimeWarning, (1 - e)^2 on floats raises."""
    with pytest.raises(OverflowError):
        models.starobinsky_potential(_STARO)(3000.0)


def test_friedmann_potential_calls():
    """One float call of V at t = 0, then one of V and one of dV per RK4 stage, and one
    array call of V for the residual."""
    calls = {"v": [], "dv": []}

    def counted(name, f):
        def wrapped(phi):
            calls[name].append(type(phi))
            return f(phi)
        return wrapped

    n_steps = 250
    models.friedmann_evolve(counted("v", models.starobinsky_potential(_STARO)),
                            (1.0, -10.0, 0.0), t_span=(0.0, n_steps * 0.01), dt=0.01,
                            dpotential=counted("dv", models.starobinsky_potential_deriv(_STARO)))
    assert calls["v"] == [float] * (4 * n_steps + 1) + [np.ndarray]
    assert calls["dv"] == [float] * (4 * n_steps)


@pytest.mark.parametrize("phi0", [300.0, 500.0])
def test_friedmann_overflowing_state_is_a_domain_error(phi0):
    """From phi0 = 300 the state turns to NaN, and from 500 a float overflows; neither
    may return a trajectory or print a RuntimeWarning (which this suite makes an error)."""
    with pytest.raises(DomainError, match="t="):
        models.friedmann_evolve(models.starobinsky_potential(_STARO), (1.0, phi0, 0.0),
                                t_span=(0.0, 1.0), dt=0.01,
                                dpotential=models.starobinsky_potential_deriv(_STARO))


def test_friedmann_underflowing_scale_factor_is_a_domain_error():
    """a0^2 underflows to zero in the curvature term."""
    with pytest.raises(DomainError, match="float range"):
        models.friedmann_evolve(lambda phi: 0.0, (1e-200, 0.0, 0.0), t_span=(0.0, 1.0), dt=0.1)


@pytest.mark.parametrize("initial", [(math.nan, 0.0, 0.0), (1.0, 0.0, math.inf)],
                         ids=["nan-a0", "inf-phidot0"])
def test_friedmann_rejects_non_finite_initial_data(initial):
    with pytest.raises(InconsistentInitialDataError, match="finite"):
        models.friedmann_evolve(lambda phi: 0.0, initial, t_span=(0.0, 1.0), dt=0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [{"dt": math.nan}, {"dt": math.inf},
                                   {"t_span": (0.0, math.inf)}, {"t_span": (math.nan, 1.0)},
                                   {"t_span": math.inf}, {"t_span": (0.0, 1e300), "dt": 1e-300},
                                   {"t_span": (-1e308, 1e308)}],
                         ids=["nan-dt", "inf-dt", "inf-end", "nan-start", "inf-scalar-span",
                              "overflowing-count", "overflowing-span"])
def test_friedmann_refuses_non_finite_step_settings(steps):
    """Refused before the step count is made: an int() of NaN or inf would raise a bare error."""
    with pytest.raises(DomainError, match="finite step count"):
        models.friedmann_evolve(lambda phi: 0.0, (1.0, 0.0, 0.0), **{"dt": 0.01, **steps})


def test_friedmann_checks_final_row():
    """A constraint broken only at the last point, which no RK4 stage evaluates, still raises."""
    kw = {"t_span": (0.0, 1.0), "dt": 1.0, "dpotential": lambda phi: 0.0}
    phi_end = models.friedmann_evolve(lambda phi: 0.0, (1.0, 0.0, 1.0), **kw).phi[-1]

    def dip(phi):
        return np.where(np.abs(phi - phi_end) < 1e-3, -10.0, 0.0)

    with pytest.raises(DomainError, match="radicand -9.9"):
        models.friedmann_evolve(dip, (1.0, 0.0, 1.0), **kw)


def test_friedmann_rejects_bad_initial_data():
    with pytest.raises(InconsistentInitialDataError):
        models.friedmann_evolve(
            lambda phi: -1.0, (1.0, 0.0, 0.0), Lambda=0.0, k=0.0, t_span=(0.0, 1.0), dt=0.01
        )
    with pytest.raises(InconsistentInitialDataError):
        models.friedmann_evolve(lambda phi: 0.0, (-1.0, 0.0, 0.0), t_span=(0.0, 1.0), dt=0.01)


def test_friedmann_domain_error_midrun():
    # potential turns negative away from phi=0: constraint eventually breaks
    with pytest.raises(DomainError):
        models.friedmann_evolve(
            lambda phi: 0.5 - phi**2,
            (1.0, 0.0, 1.0),
            Lambda=0.0,
            k=0.0,
            t_span=(0.0, 10.0),
            dt=1e-3,
        )


# ---------------------------------------------------------------------------
# config interface

def test_build_model_roundtrip():
    h, resolved = models.build_model(
        {"model": "starobinsky", "params": {}, "qubits": [3], "basis": "oscillator"}
    )
    assert h.shape == (8, 8)
    assert resolved["params"]["M1_4"] == pytest.approx(29.167)


def test_build_model_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        models.build_model({"model": "starobinsky", "qubits": [3], "extra": 1})
    with pytest.raises(ConfigError):
        models.build_model(
            {"model": "starobinsky", "params": {"bogus": 2}, "qubits": [3]}
        )


def test_build_model_minisuperspace_needs_kind():
    with pytest.raises(ConfigError):
        models.build_model({"model": "minisuperspace", "params": {}, "qubits": [3]})
    h, resolved = models.build_model(
        {
            "model": "minisuperspace",
            "params": {"kind": "kantowski-sachs", "Lambda": 0.0, "k_curv": 1.0, "p_phi": 2.0},
            "qubits": [3],
            "basis": "fd",
        }
    )
    assert h.shape == (8, 8)
    assert resolved["params"]["kind"] == "kantowski-sachs"


def test_qubit_limit_refused_before_any_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(models, "build_position", no_matrix)
    monkeypatch.setattr(models, "build_momentum_squared", no_matrix)
    over = models.MAX_QUBITS // 2 + 1
    with pytest.raises(ConfigError, match=f"limit of {models.MAX_QUBITS}"):
        models.build_model({"model": "dark_matter_1", "qubits": [over, over]})


# ---------------------------------------------------------------------------
# real assembly against the former complex one

def former_ladder(n):
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def former_position(basis, n):
    if basis is BasisKind.OSCILLATOR:
        a = former_ladder(n)
        return (a + a.conj().T) / np.sqrt(2.0)
    j = np.arange(1, n + 1)
    if basis is BasisKind.POSITION:
        return np.diag(np.sqrt(2.0 * np.pi / (4.0 * n)) * (2 * j - (n + 1))).astype(complex)
    return np.diag(np.sqrt(1.0 / (2.0 * n)) * (2 * j - (n + 1))).astype(complex)


def former_momentum(basis, n):
    if basis is BasisKind.OSCILLATOR:
        a = former_ladder(n)
        return 1j * (a.conj().T - a) / np.sqrt(2.0)
    f = bases.fourier_matrix(n)
    return bases.hermitize(f.conj().T @ former_position(BasisKind.POSITION, n) @ f)


def former_momentum_squared(basis, n):
    if basis is BasisKind.FINITE_DIFFERENCE:
        body = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        return (n / 2.0) * body.astype(complex)
    p = former_momentum(basis, n)
    return bases.hermitize(p @ p)


def former_apply_scalar_function(op, f):
    """Spectral calculus in complex arithmetic, whatever the operator."""
    op = np.asarray(op, dtype=complex)
    bases.require_hermitian(op)
    if np.count_nonzero(op - np.diag(np.diagonal(op))) == 0:
        return np.diag(np.asarray(f(np.real(np.diagonal(op))), dtype=complex))
    w, u = np.linalg.eigh(op)
    return bases.hermitize((u * f(w)) @ u.conj().T)


def _preset_models():
    """(preset, basis, config) for every model preset under every basis the model allows."""
    cases = []
    for name, preset in presets.PRESETS.items():
        if "model" not in preset:
            continue
        for basis in BasisKind:
            config = {key: preset[key] for key in ("model", "params", "qubits")}
            config["basis"] = basis.value
            try:
                models.check_model(config)
            except ConfigError:
                continue
            cases.append(pytest.param(name, basis, config, id=f"{name}-{basis.value}"))
    return cases


@pytest.mark.parametrize("name, basis, config", _preset_models())
def test_real_assembly_matches_former_complex_assembly(monkeypatch, name, basis, config):
    """Each operator is real unless its physics is complex; H keeps its bits, ground and count.

    Only the single-radius dark-energy presets differ at all: their potential goes through
    a real eigh of the oscillator X instead of a complex one.
    """
    h = models.build_model(config)[0]
    for attr, former in [("build_position", former_position), ("build_momentum", former_momentum),
                         ("build_momentum_squared", former_momentum_squared),
                         ("apply_scalar_function", former_apply_scalar_function)]:
        monkeypatch.setattr(models, attr, former)
    oracle = models.build_model(config)[0]
    assert oracle.dtype == np.complex128
    complex_physics = config["model"] == "dark_matter_2" or basis is BasisKind.POSITION
    assert h.dtype == (np.complex128 if complex_physics else np.float64)
    if config["model"] == "dark_energy_1r":
        assert np.max(np.abs(h - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    else:
        assert np.array_equal(h, oracle)
    e, e_oracle = vqe.exact_ground(h), vqe.exact_ground(oracle)
    assert abs(e - e_oracle) <= 1e-12 * max(1.0, abs(e_oracle))
    assert len(pauli.decompose(h)) == len(pauli.decompose(oracle))
