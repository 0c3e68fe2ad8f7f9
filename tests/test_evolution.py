import dataclasses

import numpy as np
import pytest

from qcosmo import bases, cli, evolution, models, pauli, vqe
from qcosmo.errors import DomainError
from qcosmo.evolution import (
    exact_evolve,
    free_interval_hamiltonian,
    interval_propagation_profile,
    split_even_odd,
    trotter_evolve,
)


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_exact_evolve_t0():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 8)
    psi = random_state(rng, 8)
    assert np.allclose(exact_evolve(h, 0.0, psi), psi, atol=1e-14)


def test_exact_evolve_z_phase():
    z = np.diag([1.0, -1.0]).astype(complex)
    out = exact_evolve(z, np.pi / 2, np.array([1, 0], dtype=complex))
    assert out[0] == pytest.approx(-1j, abs=1e-12)


def test_energy_conserved():
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = random_hermitian(rng, 8)
        psi = random_state(rng, 8)
        out = exact_evolve(h, 0.73, psi)
        before = np.vdot(psi, h @ psi).real
        after = np.vdot(out, h @ out).real
        assert after == pytest.approx(before, abs=1e-10)


def test_time_composability():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 8)
    psi = random_state(rng, 8)
    once = exact_evolve(h, 0.9, psi)
    twice = exact_evolve(h, 0.5, exact_evolve(h, 0.4, psi))
    assert np.max(np.abs(once - twice)) <= 1e-10


def test_single_part_equals_exact():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 8)
    psi = random_state(rng, 8)
    for steps in (1, 7):
        res = trotter_evolve([h], 0.8, steps, 1, psi)
        assert np.max(np.abs(res.final - exact_evolve(h, 0.8, psi))) <= 1e-12


def test_commuting_parts_equal_exact():
    rng = np.random.default_rng(4)
    d1 = np.diag(rng.normal(size=8)).astype(complex)
    d2 = np.diag(rng.normal(size=8)).astype(complex)
    psi = random_state(rng, 8)
    res = trotter_evolve([d1, d2], 1.3, 3, 1, psi)
    assert np.max(np.abs(res.final - exact_evolve(d1 + d2, 1.3, psi))) <= 1e-12


def test_exact_evolve_overflowing_time():
    h = np.diag([4.0, -4.0]).astype(complex)
    with pytest.raises(DomainError):
        exact_evolve(h, 1e308, np.array([1, 0], dtype=complex))


def test_phase_bound():
    """max|w|*|t| up to MAX_PHASE evolves; one ulp above it raises, for any step count."""
    h = np.diag([4.0, -4.0])
    psi = np.array([1, 0], dtype=complex)
    t = evolution.MAX_PHASE / 4.0
    above = np.nextafter(t, np.inf)
    for sign in (1.0, -1.0):
        assert abs(abs(exact_evolve(h, sign * t, psi)[0]) - 1.0) <= 1e-12
        with pytest.raises(DomainError, match="above 1e\\+12"):
            exact_evolve(h, sign * above, psi)
    parts = [h, np.array([[0.0, 1.0], [1.0, 0.0]])]
    assert np.isfinite(trotter_evolve(parts, t, 1000, 2, psi).final).all()
    with pytest.raises(DomainError):
        trotter_evolve(parts, above, 1000, 2, psi)


def test_unitarity_and_fidelity():
    h = free_interval_hamiltonian(4)
    parts = split_even_odd(h)
    psi = np.zeros(16, dtype=complex)
    psi[8] = 1.0
    res = trotter_evolve(parts, 0.3, 16, 2, psi)
    assert abs(np.linalg.norm(res.final) - 1.0) <= 1e-9
    fidelity = np.abs(np.vdot(exact_evolve(h, 0.3, psi), res.final))
    assert 0.99 <= fidelity <= 1.0 + 1e-12


def test_split_even_odd_sums_and_does_not_commute():
    h = free_interval_hamiltonian(5)
    even, odd = split_even_odd(h)
    assert np.max(np.abs(even + odd - h)) <= 1e-12
    assert np.max(np.abs(even @ odd - odd @ even)) > 1.0


def _split_even_odd_per_bond(h):
    """The per-bond loop that split_even_odd replaced, kept as its oracle."""
    even = np.diag(np.diagonal(h)) / 2.0
    odd = np.diag(np.diagonal(h)) / 2.0
    for i in range(h.shape[0] - 1):
        block = np.zeros_like(h)
        block[i, i + 1] = h[i, i + 1]
        block[i + 1, i] = h[i + 1, i]
        if i % 2 == 0:
            even = even + block
        else:
            odd = odd + block
    return [even, odd]


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_split_even_odd_matches_per_bond_loop(n_qubits):
    rng = np.random.default_rng(n_qubits)
    dim = 2**n_qubits
    bonds = np.diag(rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1), 1)
    tridiagonal = np.diag(rng.normal(size=dim)) + bonds + bonds.conj().T
    for h in (free_interval_hamiltonian(n_qubits), tridiagonal):
        h = np.asarray(h, dtype=complex)
        for new, old in zip(split_even_odd(h), _split_even_odd_per_bond(h)):
            assert np.array_equal(new, old)


@pytest.mark.parametrize("order,target", [(1, -1.0), (2, -2.0)])
def test_trotter_error_slopes(order, target):
    h = free_interval_hamiltonian(5)
    parts = split_even_odd(h)
    psi = np.zeros(32, dtype=complex)
    psi[16] = 1.0
    t = 0.1
    exact = exact_evolve(h, t, psi)
    errs = [
        np.linalg.norm(trotter_evolve(parts, t, s, order, psi).final - exact)
        for s in (8, 16, 32, 64)
    ]
    slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert abs(slope - target) <= 0.15


def test_interval_profile_tau0_delta():
    profs = interval_propagation_profile(5, [0.0], 16, steps=64, order=2)
    assert profs[0].squared[16] == pytest.approx(1.0)
    assert np.sum(profs[0].squared) == pytest.approx(1.0, abs=1e-12)


def test_interval_profile_norms_and_spread():
    taus = [0.0, 0.05, 0.1, 0.2]
    profs = interval_propagation_profile(5, taus, 16, steps=64, order=2)
    grid = profs[0].grid
    variances = []
    for p in profs:
        assert np.sum(p.squared) == pytest.approx(1.0, abs=1e-9)
        mean = np.sum(grid * p.squared)
        variances.append(np.sum((grid - mean) ** 2 * p.squared))
    assert all(b > a - 1e-15 for a, b in zip(variances, variances[1:]))
    # spreading stays symmetric about the launch point until walls matter;
    # the even/odd bond split leaves a Trotter-scale parity imprint
    last = profs[-1].squared
    for d in range(1, 13):
        assert last[16 + d] == pytest.approx(last[16 - d], abs=1e-4)


def test_interval_profile_matches_exact():
    taus = [0.1, 0.2]
    profs = interval_propagation_profile(5, taus, 16, steps=64, order=2)
    h = free_interval_hamiltonian(5)
    psi = np.zeros(32, dtype=complex)
    psi[16] = 1.0
    for tau, prof in zip(taus, profs):
        exact = exact_evolve(h, tau, psi)
        assert np.max(np.abs(prof.values - exact)) <= 1e-3


def test_double_well_initial_and_norm():
    params = models.MinisuperspaceParams(Lambda=-0.5, k_curv=-2.5, v_volume=1.0)
    taus = [0.0, 0.5, 1.0]
    profs = evolution.double_well_eoh(params, 5, taus, center=-1.58, width=0.35,
                                      steps=64, order=2)
    initial = evolution.gaussian_on_grid(profs[0].grid, -1.58, 0.35)
    assert np.max(np.abs(profs[0].values - initial)) <= 1e-12
    for p in profs:
        assert np.sum(p.squared) == pytest.approx(1.0, abs=1e-9)


def test_double_well_tunneling_signature():
    """Probability beyond the barrier grows monotonically at early fifth time."""
    params = models.MinisuperspaceParams(Lambda=-0.5, k_curv=-2.5, v_volume=1.0)
    taus = [0.0, 0.25, 0.5, 1.0]
    profs = evolution.double_well_eoh(params, 5, taus, center=-1.58, width=0.35,
                                      steps=64, order=2)
    grid = profs[0].grid
    right = [float(np.sum(p.squared[grid > 0])) for p in profs]
    assert all(b > a for a, b in zip(right, right[1:]))

    # cross-check the transfer against the exact propagator
    from qcosmo.bases import BasisKind, build_momentum_squared

    pot = 2 * params.k_curv * grid**2 - 2 * params.Lambda * grid**4
    h = build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 32) / 2 + np.diag(pot.astype(complex))
    psi0 = evolution.gaussian_on_grid(grid, -1.58, 0.35)
    exact_right = [
        float(np.sum(np.abs(exact_evolve(h, t, psi0))[grid > 0] ** 2)) for t in taus
    ]
    assert all(b > a for a, b in zip(exact_right, exact_right[1:]))
    assert np.allclose(right, exact_right, atol=1e-4)


DW_PARAMS = models.MinisuperspaceParams(Lambda=-0.5, k_curv=-2.5, v_volume=1.0)


def test_double_well_p_phi_is_a_global_phase():
    """-p_phi^2 shifts the potential by a constant: K changes, |K|^2 does not."""
    taus = [0.0, 0.5, 1.0]
    base = evolution.double_well_eoh(DW_PARAMS, 4, taus, -1.58, 0.35, steps=8, order=2)
    shifted_params = dataclasses.replace(DW_PARAMS, p_phi=1.5)
    shifted = evolution.double_well_eoh(shifted_params, 4, taus, -1.58, 0.35, steps=8, order=2)
    assert np.max(np.abs(shifted[-1].values.real - base[-1].values.real)) > 0.1
    for b, s in zip(base, shifted):
        assert np.max(np.abs(s.squared - b.squared)) <= 1e-12
        dev_b = np.max(np.abs(np.abs(b.exact) ** 2 - b.squared))
        dev_s = np.max(np.abs(np.abs(s.exact) ** 2 - s.squared))
        assert abs(dev_s - dev_b) <= 1e-12


def _interval_case(taus, steps, order, n_qubits=5):
    dim = 2**n_qubits
    psi0 = np.zeros(dim, dtype=complex)
    psi0[dim // 2] = 1.0
    parts = split_even_odd(free_interval_hamiltonian(n_qubits))
    profs = interval_propagation_profile(n_qubits, taus, dim // 2, steps=steps, order=order)
    return parts, psi0, profs


def _double_well_case(taus, steps, order, n_qubits=5):
    psi0 = evolution.gaussian_on_grid(evolution.fd_grid(n_qubits), -1.58, 0.35)
    parts = evolution.double_well_parts(DW_PARAMS, n_qubits)
    profs = evolution.double_well_eoh(DW_PARAMS, n_qubits, taus, -1.58, 0.35, steps=steps,
                                      order=order)
    return parts, psi0, profs


@pytest.mark.parametrize("case", [_interval_case, _double_well_case])
@pytest.mark.parametrize("order", [1, 2])
def test_profile_matches_trotter_and_exact_evolve(case, order):
    """Profiles reuse one decomposition per part; each state equals the per-call route."""
    taus = [0.0, 0.05, 0.3, 1.0]
    parts, psi0, profs = case(taus, 16, order)
    assert np.array_equal(profs[0].values, psi0)
    for tau, prof in zip(taus, profs):
        if tau:
            assert np.array_equal(prof.values, trotter_evolve(parts, tau, 16, order, psi0).final)
        assert np.array_equal(prof.exact, exact_evolve(sum(parts), tau, psi0))


def _counting_eigh(monkeypatch):
    """Patch np.linalg.eigh to record the shape of each call; return the record."""
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("case", [_interval_case, _double_well_case])
@pytest.mark.parametrize("taus", [[0.3], [0.0, 0.05, 0.3, 1.0]])
def test_profile_eigh_once_per_part(monkeypatch, case, taus):
    """Every part of both EOH kinds is centrosymmetric, two half-size eighs each (the interval's
    even part, odd part and H; the double well's kinetic part and H), or diagonal, none (the
    double well's potential); the count does not grow with the number of taus."""
    calls = _counting_eigh(monkeypatch)
    case(taus, 8, 2)
    assert calls == [(16, 16)] * (6 if case is _interval_case else 4)


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_double_well_is_reflection_symmetric_to_the_bit(n_qubits):
    parts = evolution.double_well_parts(DW_PARAMS, n_qubits)
    pot = np.diagonal(parts[1])
    assert np.array_equal(pot, pot[::-1])
    h = sum(parts)
    assert np.array_equal(h, h[::-1, ::-1])


# ---------------------------------------------------------------------------
# the former Trotter path, frozen as the oracle of the step-matrix path: a complex
# eigh of every part, a dense propagator per part and slice, one matvec per factor

def _oracle_propagator(spectrum, t):
    w, u = spectrum
    return (u * np.exp(-1j * w * t)) @ u.conj().T


def _oracle_trotter(parts, t, steps, order, psi):
    spectra = [np.linalg.eigh(np.asarray(p, dtype=complex)) for p in parts]
    dt = t / steps
    if order == 1:
        sequence = [_oracle_propagator(s, dt) for s in spectra]
    else:
        half = [_oracle_propagator(s, dt / 2.0) for s in spectra[:-1]]
        sequence = half + [_oracle_propagator(spectra[-1], dt)] + half[::-1]
    out = np.asarray(psi, dtype=complex)
    for _ in range(steps):
        for u in sequence:
            out = u @ out
    return out


def _oracle_exact(h, t, psi):
    w, u = np.linalg.eigh(np.asarray(h, dtype=complex))
    return u @ (np.exp(-1j * w * t) * (u.conj().T @ psi))


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2


# "three-complex" has a complex middle part: a complex overlap, then a real part
# applied to a step matrix that is no longer diagonal; "diagonal-first" takes no eigh for
# part 0, "centrosymmetric" half-size eighs for both parts, the second one complex
_ORACLE_SPLITS = {
    "one": lambda rng, dim: [_random_symmetric(rng, dim)],
    "two": lambda rng, dim: [_random_symmetric(rng, dim), _random_symmetric(rng, dim)],
    "three": lambda rng, dim: [_random_symmetric(rng, dim) for _ in range(3)],
    "three-complex": lambda rng, dim: [_random_symmetric(rng, dim), random_hermitian(rng, dim),
                                       _random_symmetric(rng, dim)],
    "diagonal-first": lambda rng, dim: [np.diag(rng.normal(size=dim)), _random_symmetric(rng, dim)],
    "centrosymmetric": lambda rng, dim: [_centrosymmetric(rng, dim, "real"),
                                         _centrosymmetric(rng, dim, "complex")],
}


@pytest.mark.parametrize("n_qubits", range(1, 9))
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("split", list(_ORACLE_SPLITS))
def test_trotter_and_exact_match_frozen_oracle(n_qubits, order, split):
    rng = np.random.default_rng([n_qubits, order, list(_ORACLE_SPLITS).index(split)])
    dim = 2**n_qubits
    parts = _ORACLE_SPLITS[split](rng, dim)
    psi = random_state(rng, dim)
    res = trotter_evolve(parts, 0.7, 5, order, psi)
    assert np.max(np.abs(res.final - _oracle_trotter(parts, 0.7, 5, order, psi))) <= 1e-12
    h = sum(parts)
    assert np.max(np.abs(exact_evolve(h, 0.7, psi) - _oracle_exact(h, 0.7, psi))) <= 1e-12


@pytest.mark.parametrize("n_qubits", range(1, 9))
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("case", [_interval_case, _double_well_case])
def test_profiles_match_frozen_oracle(n_qubits, order, case):
    taus = [0.0, 0.05, 0.5, 2.0]
    parts, psi0, profs = case(taus, 32, order, n_qubits)
    for tau, prof in zip(taus, profs):
        oracle = _oracle_trotter(parts, tau, 32, order, psi0) if tau else psi0
        assert np.max(np.abs(prof.values - oracle)) <= 1e-12
        assert np.max(np.abs(prof.exact - _oracle_exact(sum(parts), tau, psi0))) <= 1e-12


# ---------------------------------------------------------------------------
# _eigh's two cases against np.linalg.eigh, and the sector split of _split

def _centrosymmetric(rng, dim, kind):
    a = random_hermitian(rng, dim) if kind == "complex" else _random_symmetric(rng, dim)
    return (a + a[::-1, ::-1]) / 2


def _one_ulp_off(rng, dim, kind):
    p = _centrosymmetric(rng, dim, kind)
    p[0, 0] = np.nextafter(p[0, 0].real, np.inf)
    return p


def _repeated_diagonal(rng, dim, kind):
    return np.diag(rng.choice([-1.5, 0.0, 2.0], size=dim)).astype(complex if kind == "complex" else float)


def _assert_eigenpairs(p, w, u):
    scale = np.max(np.abs(p))
    assert np.max(np.abs((u * w) @ u.conj().T - p)) <= 1e-12 * scale
    assert np.max(np.abs(u.conj().T @ u - np.eye(p.shape[0]))) <= 1e-12
    assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(p))) <= 1e-12 * scale


# each case with the shapes of the eigh calls it takes
_EIGH_CASES = {
    "diagonal": (_repeated_diagonal, [1, 2, 7, 64, 256], lambda dim: []),
    "odd": (_centrosymmetric, [3, 5, 63, 255], lambda dim: [(dim, dim)]),
    "one-ulp-off": (_one_ulp_off, [2, 6, 64, 256], lambda dim: [(dim, dim)]),
}


@pytest.mark.parametrize("kind", ["real", "complex"])  # a complex diagonal has no imaginary part
@pytest.mark.parametrize("case", list(_EIGH_CASES))
def test_eigh_matches_numpy(monkeypatch, case, kind):
    build, dims, expected_calls = _EIGH_CASES[case]
    calls = _counting_eigh(monkeypatch)
    for dim in dims:
        rng = np.random.default_rng([dim, kind == "complex", list(_EIGH_CASES).index(case)])
        p = build(rng, dim, kind)
        calls.clear()
        w, u = evolution._eigh(p)
        assert calls == expected_calls(dim)
        _assert_eigenpairs(p, w, u)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_sector_split_matches_numpy(monkeypatch, kind):
    """A centrosymmetric part of dimension 2m takes two m x m eighs, one per reflection sector;
    the sector eigenvectors u_e, u_o give p's as (u_e; J u_e)/sqrt(2) and (u_o; -J u_o)/sqrt(2)."""
    calls = _counting_eigh(monkeypatch)
    for dim in [2, 6, 16, 64, 130, 256]:
        rng = np.random.default_rng([dim, kind == "complex", 3])
        p = _centrosymmetric(rng, dim, kind)
        calls.clear()
        _, ((w_even, u_even, _), (w_odd, u_odd, _)) = evolution._split([p])
        m = dim // 2
        assert calls == ([(m, m)] * 2 if m > 1 else [])  # a 1 x 1 block is diagonal
        u = np.block([[u_even, u_odd], [u_even[::-1], -u_odd[::-1]]]) / np.sqrt(2.0)
        _assert_eigenpairs(p, np.concatenate(w_even + w_odd), u)


# lists the sector split must leave whole: every part takes one full-size eigh
_WHOLE_SPLITS = {
    "odd": lambda rng, dim: [_centrosymmetric(rng, dim + 1, k) for k in ("real", "complex")],
    "one-ulp-off": lambda rng, dim: [_centrosymmetric(rng, dim, "real"),
                                     _one_ulp_off(rng, dim, "complex")],
    "mixed": lambda rng, dim: [_centrosymmetric(rng, dim, "real"), _random_symmetric(rng, dim)],
}


@pytest.mark.parametrize("n_qubits", [1, 4, 8])
@pytest.mark.parametrize("case", list(_WHOLE_SPLITS))
def test_split_falls_back_to_whole_parts(monkeypatch, case, n_qubits):
    rng = np.random.default_rng([n_qubits, list(_WHOLE_SPLITS).index(case)])
    parts = _WHOLE_SPLITS[case](rng, 2**n_qubits)
    dim = parts[0].shape[0]
    psi = random_state(rng, dim)
    calls = _counting_eigh(monkeypatch)
    final = trotter_evolve(parts, 0.7, 5, 2, psi).final
    assert calls == [(dim, dim)] * 2
    assert np.max(np.abs(final - _oracle_trotter(parts, 0.7, 5, 2, psi))) <= 1e-12


@pytest.mark.parametrize("case", ["interval", "double-well", "random"])
def test_swapped_sectors_miss_the_oracle(case):
    """Mutation check of the sector route: with the two sectors' splits swapped, the Trotter state
    misses the frozen oracle by far more than the 1e-12 that the unswapped split meets."""
    if case == "random":
        rng = np.random.default_rng(7)
        parts = _ORACLE_SPLITS["centrosymmetric"](rng, 32)
        psi0 = random_state(rng, 32)
    else:
        build = _interval_case if case == "interval" else _double_well_case
        parts, psi0, _ = build([], 32, 2)
    pairing, sectors = evolution._split(parts)
    assert len(sectors) == 2
    oracle = _oracle_trotter(parts, 0.5, 32, 2, psi0)
    swapped = (pairing, sectors[::-1])
    assert np.max(np.abs(evolution._trotter((pairing, sectors), 0.5, 32, 2, psi0) - oracle)) <= 1e-12
    assert np.max(np.abs(evolution._trotter(swapped, 0.5, 32, 2, psi0) - oracle)) > 1e-3


# ---------------------------------------------------------------------------
# the former sector path, frozen: _split's own A +- BJ blocks and _trotter's own state maps

def _frozen_split(parts):
    m, odd = divmod(parts[0].shape[0], 2)
    if odd or not all(np.array_equal(p, p[::-1, ::-1]) for p in parts):
        return [evolution._split_sector(parts)]
    blocks = [(p[:m, :m], p[:m, m:][:, ::-1]) for p in parts]
    return [evolution._split_sector([a + sign * bj for a, bj in blocks]) for sign in (1, -1)]


def _frozen_trotter(sectors, t, steps, order, psi):
    if len(sectors) == 1:
        return evolution._trotter_sector(sectors[0], t, steps, order, psi)
    m = psi.size // 2
    top, jbottom = psi[:m], psi[m:][::-1]
    e = evolution._trotter_sector(sectors[0], t, steps, order, (top + jbottom) / np.sqrt(2.0))
    o = evolution._trotter_sector(sectors[1], t, steps, order, (top - jbottom) / np.sqrt(2.0))
    return np.concatenate([e + o, (e - o)[::-1]]) / np.sqrt(2.0)


def _sector_cases():
    """The random parts of the sector tests above, and both EOH kinds' parts."""
    for kind in ("real", "complex"):
        for dim in [2, 6, 16, 64, 130, 256]:
            yield [_centrosymmetric(np.random.default_rng([dim, kind == "complex", 3]), dim, kind)]
    for n_qubits in (1, 4, 8):
        for case in _WHOLE_SPLITS:
            rng = np.random.default_rng([n_qubits, list(_WHOLE_SPLITS).index(case)])
            yield _WHOLE_SPLITS[case](rng, 2**n_qubits)
    yield _ORACLE_SPLITS["centrosymmetric"](np.random.default_rng(7), 32)
    for n_qubits in (1, 5, 8):
        for case in (_interval_case, _double_well_case):
            yield case([], 8, 2, n_qubits)[0]


def test_sector_path_matches_the_frozen_split_bit_for_bit():
    """The shared pairing builder and state maps give the former blocks' eigenpairs and the
    former Trotter and exact states, bit for bit."""
    for parts in _sector_cases():
        dim = parts[0].shape[0]
        psi = random_state(np.random.default_rng(dim), dim)
        pairing, sectors = evolution._split(parts)
        frozen = _frozen_split(parts)
        assert (pairing is None) == (len(frozen) == 1) and len(sectors) == len(frozen)
        for new, old in zip(sectors, frozen):
            for a, b in zip(new[0] + [new[1]] + new[2], old[0] + [old[1]] + old[2]):
                assert a.tobytes() == b.tobytes()
        for order in (1, 2):
            assert (evolution._trotter((pairing, sectors), 0.7, 5, order, psi).tobytes()
                    == _frozen_trotter(frozen, 0.7, 5, order, psi).tobytes())


@pytest.mark.parametrize("preset", ["fig13", "fig16"])
def test_eoh_presets_match_the_frozen_sector_path(tmp_path, monkeypatch, preset):
    assert cli.main(["eoh", "--preset", preset, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(evolution, "_split", _frozen_split)
    monkeypatch.setattr(evolution, "_trotter", _frozen_trotter)
    assert cli.main(["eoh", "--preset", preset, "--out", str(tmp_path / "old")]) == 0
    for path in (tmp_path / "old").iterdir():
        assert path.read_bytes() == (tmp_path / "new" / path.name).read_bytes(), path.name


# ---------------------------------------------------------------------------
# the former exact route, frozen: one eigh of H, in real arithmetic when H has no
# imaginary part, and exp(-i w t) applied between u^dag and u

def _oracle_spectral_evolve(h, t, psi):
    h = np.asarray(h, dtype=complex)
    w, u = np.linalg.eigh(h if h.imag.any() else h.real)
    return u @ (np.exp(-1j * w * t) * (u.conj().T @ psi))


@pytest.mark.parametrize("n_qubits", range(1, 9))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exact_evolve_matches_former_spectral_route_bit_for_bit(n_qubits, kind):
    rng = np.random.default_rng([n_qubits, kind == "complex"])
    dim = 2**n_qubits
    h = random_hermitian(rng, dim) if kind == "complex" else _random_symmetric(rng, dim)
    psi = random_state(rng, dim)
    for t in (0.0, 0.7, -3.1):
        assert np.array_equal(exact_evolve(h, t, psi), _oracle_spectral_evolve(h, t, psi))


@pytest.mark.parametrize("n_qubits", [1, 3, 6, 8])
def test_dtype_twins_give_identical_bits(n_qubits):
    """A real H as float64 and as complex128 with a zero imaginary part: the same bits everywhere.

    At 8 qubits H commutes with the exchange of its two 4-qubit modes, so exact_ground splits.
    """
    rng = np.random.default_rng(n_qubits)
    dim = 2**n_qubits
    h = _random_symmetric(rng, dim)
    if n_qubits == 8:
        d = 16
        h = h + h.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(dim, dim)
        assert bases.exchange(h) is not None
    twin = h.astype(complex)
    psi = random_state(rng, dim)
    assert vqe.exact_ground(h) == vqe.exact_ground(twin)
    s, s_twin = pauli.decompose(h), pauli.decompose(twin)
    assert np.array_equal(s.index, s_twin.index) and np.array_equal(s.coeff, s_twin.coeff)
    assert np.array_equal(exact_evolve(h, 0.7, psi), exact_evolve(twin, 0.7, psi))
    parts = [h, _random_symmetric(rng, dim)]
    twins = [p.astype(complex) for p in parts]
    for order in (1, 2):
        assert np.array_equal(trotter_evolve(parts, 0.7, 5, order, psi).final,
                              trotter_evolve(twins, 0.7, 5, order, psi).final)
    taus = [0.0, 0.05, 0.5]
    for case in (_interval_case, _double_well_case):
        parts, psi0, _ = case(taus, 8, 2, n_qubits)
        real = evolution._profiles([np.real(p) for p in parts], None, psi0, taus, 8, 2)
        cplx = evolution._profiles([p.astype(complex) for p in parts], None, psi0, taus, 8, 2)
        for a, b in zip(real, cplx):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.exact, b.exact)
