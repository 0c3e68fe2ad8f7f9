import math
import sys

import numpy as np
import pytest

from qcosmo import bases, circuits, models, pauli, presets, vqe
from qcosmo.bases import require_hermitian
from qcosmo.circuits import AnsatzSpec, apply_circuit, efficient_su2_ansatz, expectation_dense
from qcosmo.errors import DomainError, HermiticityError
from qcosmo.vqe import OptimizerConfig, OptimizerKind


def test_exact_ground_diagonal():
    h = np.diag([3.0, 1.0, 2.0, 4.0]).astype(complex)
    assert vqe.exact_ground(h) == pytest.approx(1.0)
    vec = np.linalg.eigh(h)[1][:, 0]
    assert abs(abs(vec[1]) - 1.0) < 1e-12


def test_exact_ground_residual():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    energy = vqe.exact_ground(h)
    vec = np.linalg.eigh(h)[1][:, 0]
    assert np.linalg.norm(h @ vec - energy * vec) <= 1e-10
    assert energy == pytest.approx(presets.reference_row("table1", "exact_ground")["reference"],
                                   abs=1e-6)


def test_exact_ground_dark_energy_64():
    h = models.dark_energy_single_radius(models.DarkEnergySingleRadiusParams(), 6)
    energy = vqe.exact_ground(h)
    assert energy == pytest.approx(presets.reference_row("table2-6q", "exact_ground")["reference"],
                                   rel=0.02)


def test_exact_ground_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        vqe.exact_ground(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("h", [np.array([[-1.7e308, 1.7e308], [1.7e308, 1.0]]),
                               np.array([[-1.7e308, 1.7e308j], [-1.7e308j, 1.0]])],
                         ids=["real", "complex"])
def test_exact_ground_refuses_a_non_finite_ground(h):
    """Finite entries near the float maximum pass require_hermitian, and eigvalsh
    overflows on them without a warning."""
    with pytest.raises(DomainError, match="not finite"):
        vqe.exact_ground(h)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_run_vqe_refuses_a_non_finite_energy(kind):
    """With every entry at the float maximum, <psi|H|psi> of a real state (c, s) is
    max (c + s)^2 and overflows where c + s > 1. The overflow raises DomainError; a run whose
    energies stay finite while the optimizer's own step overflows ends finite. No warning."""
    h = np.full((2, 2), sys.float_info.max)
    spec = AnsatzSpec(1, reps=1, rotations=("ry",))
    with pytest.raises(DomainError, match="not finite"):
        vqe.run_vqe(h, spec, OptimizerConfig(kind=kind, budget=20, seed=1))
    # at seed 0 gradient descent's gradient norm overflows
    assert math.isfinite(vqe.run_vqe(h, spec, OptimizerConfig(kind=kind, budget=20,
                                                                seed=0)).energy)


# ---------------------------------------------------------------------------
# exact symmetry sectors; the former exchange split and exact_ground, frozen as oracles

def _oracle_exchange_blocks(h):
    """The exchange-even and exchange-odd blocks of a d^2 x d^2 H, or None without the symmetry."""
    d = math.isqrt(h.shape[0])
    if d * d != h.shape[0]:
        return None
    t = h.reshape(d, d, d, d)
    if not np.array_equal(t, t.transpose(1, 0, 3, 2)):
        return None
    i, j = np.triu_indices(d, 1)
    a, b, f = i * d + j, j * d + i, np.arange(d) * (d + 1)
    direct, crossed = h[np.ix_(a, a)], h[np.ix_(a, b)]
    even = np.empty((d + a.size,) * 2, dtype=h.dtype)
    even[:d, :d] = h[np.ix_(f, f)]
    even[:d, d:] = math.sqrt(2) * h[np.ix_(f, a)]
    even[d:, :d] = math.sqrt(2) * h[np.ix_(a, f)]
    even[d:, d:] = direct + crossed
    return even, direct - crossed


def _oracle_exact_ground(h):
    """The exchange split from 256 rows, else one eigvalsh."""
    h = require_hermitian(h)
    blocks = _oracle_exchange_blocks(h) if h.shape[0] >= 256 else None
    if blocks is None:
        return float(np.linalg.eigvalsh(h)[0])
    return min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)


def _oracle_classes(nonzero):
    """The classes i ^ j of the True entries, from the entries' indices."""
    i, j = np.nonzero(nonzero)
    return np.unique(i ^ j)


def swap_factors(m):
    """m with its two equal tensor factors exchanged, on rows and columns alike."""
    d = math.isqrt(m.shape[0])
    return m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(m.shape)


def exchange_symmetric(rng, n_qubits, kind):
    """A random Hermitian H that commutes bit for bit with the exchange of its two modes."""
    dim = 2**n_qubits
    m = rng.normal(size=(dim, dim))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(dim, dim))
    return bases.hermitize(m + swap_factors(m))


def exchange_split(h):
    return bases.pairing_blocks(h, bases.exchange(h))


def assert_blocks_hold_the_spectrum(h, blocks, ulps=16):
    """The blocks' spectra together are H's, to 1e-12 ||H||; return both grounds.

    Both solves are backward stable, so each ground is within a few ulps of ||H|| of the truth.
    """
    full = np.linalg.eigvalsh(h)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    scale = np.max(np.abs(full))
    assert split.shape == full.shape
    assert np.max(np.abs(split - full)) <= 1e-12 * scale
    assert abs(split[0] - full[0]) <= ulps * np.spacing(scale)
    return split[0], full[0]


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
def test_exchange_blocks_hold_the_full_spectrum(n_qubits, kind):
    h = exchange_symmetric(np.random.default_rng([n_qubits, kind == "complex"]), n_qubits, kind)
    d = 2 ** (n_qubits // 2)
    even, odd = exchange_split(h)
    assert even.shape == (d * (d + 1) // 2,) * 2 and odd.shape == (d * (d - 1) // 2,) * 2
    # the shared builder gives the former split's blocks, bit for bit
    assert [x.tobytes() for x in (even, odd)] == [x.tobytes() for x in _oracle_exchange_blocks(h)]
    # an exactly Hermitian H gives exactly Hermitian blocks, both triangles filled
    assert np.array_equal(even, even.conj().T) and np.array_equal(odd, odd.conj().T)
    split, full = assert_blocks_hold_the_spectrum(h, (even, odd))
    # one path per input: the split at 256 rows (SPLIT_MIN_DIM), one full solve below
    assert vqe.exact_ground(h) == (split if n_qubits == 8 else full)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exchange_split_finds_a_ground_in_the_odd_sector(kind):
    """-4 (I - SWAP)/2 lowers every exchange-odd state by 4, far below the even block."""
    h = exchange_symmetric(np.random.default_rng(11), 8, kind) / 64
    swap = np.eye(256).reshape(16, 16, 16, 16).transpose(0, 1, 3, 2).reshape(256, 256)
    h = h - 2.0 * (np.eye(256) - swap)
    even, odd = exchange_split(h)
    full = np.linalg.eigvalsh(h)[0]
    assert np.linalg.eigvalsh(odd)[0] < np.linalg.eigvalsh(even)[0] - 1.0
    assert vqe.exact_ground(h) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_ulp_off_the_exchange_takes_the_full_solve(kind):
    h = exchange_symmetric(np.random.default_rng(5), 8, kind)
    # |0,1> <-> |2,3> moves by 1 ulp on both sides of the diagonal; its mirror |1,0> <-> |3,2> stays
    x, y = 0 * 16 + 1, 2 * 16 + 3
    h[x, y] += np.spacing(h[x, y].real)
    h[y, x] = np.conj(h[x, y])
    assert bases.exchange(h) is None
    assert vqe.exact_ground(h) == float(np.linalg.eigvalsh(h)[0])


def planted(rng, n_qubits, kind, conserved=0, real_form_bits=0):
    """A random Hermitian H that conserves the Z bits ``conserved`` and, given a bit set S as
    ``real_form_bits``, keeps its real part on the classes k = i ^ j with popcount(k & S) even
    and its imaginary part on the odd ones."""
    dim = 2**n_qubits
    m = rng.normal(size=(dim, dim))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(dim, dim))
    k = np.arange(dim)[:, None] ^ np.arange(dim)
    m[(k & conserved) != 0] = 0
    if real_form_bits:
        m = np.where(np.bitwise_count(k & real_form_bits) % 2 == 1, 1j * m.imag, m.real)
    return bases.hermitize(m)


def real_form_classes(h):
    return bases.xor_classes(np.ascontiguousarray(h).view(np.float64).reshape(*h.shape, 2) != 0)


SYMMETRY_CASES = ["parity-real", "parity-complex", "real-form", "real-form-and-parity"]


@pytest.mark.parametrize("case", SYMMETRY_CASES)
@pytest.mark.parametrize("n_qubits", range(2, 9))
def test_symmetry_blocks_hold_the_full_spectrum(n_qubits, case):
    """Conserved Z bits and the real form, planted in random H: the blocks of each path hold
    the full spectrum, and exact_ground takes them at 256 rows."""
    rng = np.random.default_rng([n_qubits, SYMMETRY_CASES.index(case)])
    dim = 2**n_qubits
    bits = rng.permutation(n_qubits)
    # at least one bit stays free, so a real form has classes to act on
    n_conserved = int(rng.integers(1, n_qubits)) if "parity" in case else 0
    conserved = int(np.sum(1 << bits[:n_conserved]))
    free = bits[n_conserved:]
    s = int(np.sum(1 << rng.choice(free, int(rng.integers(1, free.size + 1)), replace=False)))
    s = s if "real-form" in case else 0
    h = planted(rng, n_qubits, "real" if case == "parity-real" else "complex", conserved, s)
    assert np.iscomplexobj(h) == (case != "parity-real")
    classes = bases.xor_classes(h != 0)
    assert np.array_equal(np.flatnonzero(classes), _oracle_classes(h != 0))
    if s:
        re, im = real_form_classes(h).T
        assert np.array_equal(np.flatnonzero(re), _oracle_classes(h.real != 0))
        assert np.array_equal(np.flatnonzero(im), _oracle_classes(h.imag != 0))
        assert bases._real_form_bits(re, im) == s
        r = bases.real_form(h, re, im)
        # each entry is +Re, -Im or +Im of H's: U^dag H U in complex arithmetic, exactly
        u = 1j ** (np.bitwise_count(np.arange(dim) & s) % 2)
        ref = u.conj()[:, None] * h * u
        assert r.dtype == np.float64 and not ref.imag.any() and np.array_equal(ref.real, r)
    blocks = vqe._sector_blocks(h)
    assert len(blocks) == 2 ** n_conserved
    assert all(b.shape == (dim >> n_conserved,) * 2 for b in blocks)
    assert all(np.iscomplexobj(b) == (case == "parity-complex") for b in blocks)
    # the real form alone is one full-size block, solved in the other arithmetic: two 256-row
    # solves, each up to 27 ulps of ||H|| from a long-double Rayleigh quotient (20 seeds)
    ulps = 32 if case == "real-form" and n_qubits == 8 else 16
    split, full = assert_blocks_hold_the_spectrum(h, blocks, ulps)
    # one path per input: the blocks at 256 rows (SPLIT_MIN_DIM), one full solve below
    assert vqe.exact_ground(h) == (split if n_qubits == 8 else full)


# |0,1> and |2,2> differ in bit 0; |0,1> and |2,3> in bits 1 and 5; each pair's mirror under
# the exchange is moved with it, so only the planted symmetry breaks
ULP_OFF = {"parity": ((1, 34), (16, 34)), "real-form": ((1, 35), (16, 50))}


@pytest.mark.parametrize("symmetry", list(ULP_OFF))
def test_one_ulp_off_a_symmetry_takes_the_exchange_split(symmetry):
    """An 8-qubit H with the mode exchange and a planted parity or real form, bits {0, 4} as in
    table4-256 and table5: one ulp of a zero entry off the planted symmetry, and exact_ground
    takes the exchange split in its place."""
    rng = np.random.default_rng(17)
    kind, bits = ("real", {"conserved": 0b10001}) if symmetry == "parity" else (
        "complex", {"real_form_bits": 0b10001})
    h = planted(rng, 8, kind, **bits)
    h = bases.hermitize(h + swap_factors(h))
    tiny = np.nextafter(0.0, 1.0) * (1 if symmetry == "parity" else 1j)
    for x, y in ULP_OFF[symmetry]:
        assert h[x, y] == 0 if symmetry == "parity" else h[x, y].imag == 0
        h[x, y] += tiny
        h[y, x] = np.conj(h[x, y])
    assert bases.exchange(h) is not None
    assert bases.parity_blocks(h, bases.xor_classes(h != 0)) is None
    if symmetry == "real-form":
        re, im = real_form_classes(h).T
        assert bases._real_form_bits(re, im) is None and bases.real_form(h, re, im) is h
    assert vqe.exact_ground(h) == _oracle_exact_ground(h)


@pytest.mark.parametrize("dim", [257, 289, 300])
def test_exact_ground_off_a_power_of_two(dim):
    """A Z bit is a bit of a qubit index, so other dimensions skip the scans; 289 = 17^2 rows
    that commute with the exchange still take the exchange split."""
    m = np.random.default_rng(dim).normal(size=(dim, dim))
    h = bases.hermitize(m + swap_factors(m) if dim == 289 else m)
    assert (bases.exchange(h) is not None) == (dim == 289)
    assert vqe.exact_ground(h) == _oracle_exact_ground(h)


# per model preset: its conserved Z bits, the bit set S of its real form (complex H only)
# and whether it commutes with the mode exchange
PRESET_SECTORS = {"table4-16": (0b101, None, True), "table4-64": (0b1001, None, True),
                  "table4-256": (0b10001, None, True), "table5": (0, 0b10001, True)}


@pytest.mark.parametrize("preset", [name for name, cfg in presets.PRESETS.items() if "model" in cfg])
def test_exchange_split_on_presets_matches_the_full_solve(preset):
    """Exactly the two-field presets commute with the mode exchange; table3's H misses it
    by its sum order, so it keeps the full solve. The table4 presets conserve the lowest Z bit
    of each mode, and table5's complex H has the real form with S = those two bits."""
    cfg = presets.get_preset(preset)
    h = require_hermitian(models.build_model({k: cfg[k] for k in ("model", "params", "qubits",
                                                                  "basis")})[0])
    conserved, s, exchanged = PRESET_SECTORS.get(preset, (0, None, False))
    dim = h.shape[0]
    assert (dim - 1) & ~int(np.bitwise_or.reduce(_oracle_classes(h != 0))) == conserved
    assert (bases.parity_blocks(h, bases.xor_classes(h != 0)) is not None) == bool(conserved)
    assert (bases.exchange(h) is not None) == exchanged
    if exchanged:
        assert ([x.tobytes() for x in exchange_split(h)]
                == [x.tobytes() for x in _oracle_exchange_blocks(h)])
    assert np.iscomplexobj(h) == (s is not None)
    if s is not None:
        re, im = real_form_classes(h).T
        assert bases._real_form_bits(re, im) == s
    ground = vqe.exact_ground(h)
    if preset == "table5":
        # real arithmetic moves the last digit (0.3046036561383964 before)
        assert ground == 0.30460365613839646
        assert abs(ground - _oracle_exact_ground(h)) <= 16 * np.spacing(np.linalg.norm(h, 2))
    else:
        assert ground == _oracle_exact_ground(h)
    assert ground == pytest.approx(float(np.linalg.eigvalsh(h)[0]), rel=1e-14)


def test_single_qubit_z_reaches_minus_one():
    z = np.diag([1.0, -1.0]).astype(complex)
    spec = AnsatzSpec(1, reps=1, rotations=("ry",))
    for kind in OptimizerKind:
        res = vqe.run_vqe(z, spec, OptimizerConfig(kind=kind, budget=200, seed=1))
        assert res.energy <= -0.9999


def test_trace_monotone_and_ends_at_energy():
    z = np.diag([1.0, -1.0]).astype(complex)
    res = vqe.run_vqe(
        z, AnsatzSpec(1, reps=1, rotations=("ry",)),
        OptimizerConfig(kind=OptimizerKind.NELDER_MEAD, budget=100, seed=0),
    )
    energies = [e for _, e in res.trace]
    assert all(a >= b - 1e-15 for a, b in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(res.energy)
    assert len(res.eval_times) == len(res.trace)


def test_variational_bound_every_trace_point():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    lam_min = vqe.exact_ground(h)
    res = vqe.run_vqe(
        h, AnsatzSpec(4, reps=3),
        OptimizerConfig(kind=OptimizerKind.GRADIENT_DESCENT, budget=300, seed=3),
    )
    assert all(e >= lam_min - 1e-9 for _, e in res.trace)


def test_determinism_bit_for_bit():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    for kind in OptimizerKind:
        cfg = OptimizerConfig(kind=kind, budget=150, seed=7)
        r1 = vqe.run_vqe(h, AnsatzSpec(4, reps=1), cfg)
        r2 = vqe.run_vqe(h, AnsatzSpec(4, reps=1), cfg)
        assert [e for _, e in r1.trace] == [e for _, e in r2.trace]
        assert np.array_equal(r1.params, r2.params)


def test_pauli_sum_input_agrees_with_dense():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 2)
    s = pauli.decompose(h)
    cfg = OptimizerConfig(kind=OptimizerKind.NELDER_MEAD, budget=60, seed=2)
    dense = vqe.run_vqe(h, AnsatzSpec(2, reps=1), cfg)
    summed = vqe.run_vqe(s, AnsatzSpec(2, reps=1), cfg)
    assert dense.energy == pytest.approx(summed.energy, abs=1e-9)
    assert [e for _, e in dense.trace] == pytest.approx([e for _, e in summed.trace], abs=1e-9)


def test_pauli_sum_is_reconstructed_once(monkeypatch):
    s = pauli.decompose(models.starobinsky_hamiltonian(models.StarobinskyParams(), 2))
    calls = []
    reconstruct = pauli.reconstruct
    monkeypatch.setattr(pauli, "reconstruct", lambda x: calls.append(x) or reconstruct(x))

    def no_expectation(*args):
        raise AssertionError("pauli.expectation called inside run_vqe")

    monkeypatch.setattr(pauli, "expectation", no_expectation)
    res = vqe.run_vqe(s, AnsatzSpec(2, reps=1), OptimizerConfig(budget=30, seed=2))
    assert calls == [s] and res.n_evals > 1


@pytest.mark.parametrize("budget", [1, 40])
def test_hamiltonian_checked_once_per_run(monkeypatch, budget):
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 2)
    calls = []

    def counting(op, *args, **kwargs):
        calls.append(op.shape)
        return require_hermitian(op, *args, **kwargs)

    monkeypatch.setattr(vqe, "require_hermitian", counting)
    monkeypatch.setattr(circuits, "require_hermitian", counting)
    res = vqe.run_vqe(h, AnsatzSpec(2, reps=1), OptimizerConfig(budget=budget, seed=0))
    assert res.n_evals == budget and calls == [(4, 4)]


@pytest.mark.parametrize("kind", list(OptimizerKind))
def test_dense_trace_matches_expectation_dense_oracle(kind):
    """run_vqe's energy is the formula of the checked expectation_dense, bit for bit."""
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 3)
    spec, cfg = AnsatzSpec(3, reps=2), OptimizerConfig(kind=kind, budget=80, seed=5)
    circuit = efficient_su2_ansatz(spec)
    theta0 = np.random.default_rng(cfg.seed).uniform(-np.pi, np.pi, circuit.n_params)
    ref = vqe._MINIMIZERS[kind](
        lambda thetas: [expectation_dense(h, apply_circuit(circuit, t)) for t in thetas],
        theta0, budget=cfg.budget, tol=cfg.tol)
    res = vqe.run_vqe(h, spec, cfg)
    assert [e for _, e in res.trace] == list(np.minimum.accumulate(ref.history))
    assert res.energy == ref.fun and np.array_equal(res.params, ref.x)


def test_budget_one_gives_partial_result():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 2)
    res = vqe.run_vqe(h, AnsatzSpec(2, reps=1), OptimizerConfig(budget=1))
    assert res.n_evals == 1
    assert not res.converged
    assert np.isfinite(res.energy)


def test_unconverged_budget_is_not_an_error():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    res = vqe.run_vqe(
        h, AnsatzSpec(4, reps=1),
        OptimizerConfig(kind=OptimizerKind.NELDER_MEAD, budget=20, seed=0),
    )
    assert not res.converged
    assert res.n_evals <= 20


def test_starobinsky_vqe_reaches_table_accuracy():
    """At least one seed in 0..9 lands within 1e-3 of the exact ground."""
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    exact = vqe.exact_ground(h)
    best = np.inf
    for seed in range(10):
        res = vqe.run_vqe(
            h, AnsatzSpec(4, reps=3),
            OptimizerConfig(kind=OptimizerKind.GRADIENT_DESCENT, budget=2000, seed=seed),
        )
        best = min(best, res.energy)
        if best - exact <= 1e-3:
            break
    assert best - exact <= 1e-3
