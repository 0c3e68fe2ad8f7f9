import math

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


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n_qubits", [2, 4, 6, 8])
def test_exchange_blocks_hold_the_full_spectrum(n_qubits, kind):
    h = exchange_symmetric(np.random.default_rng([n_qubits, kind == "complex"]), n_qubits, kind)
    d = 2 ** (n_qubits // 2)
    even, odd = vqe._exchange_blocks(h)
    assert even.shape == (d * (d + 1) // 2,) * 2 and odd.shape == (d * (d - 1) // 2,) * 2
    # an exactly Hermitian H gives exactly Hermitian blocks, both triangles filled
    assert np.array_equal(even, even.conj().T) and np.array_equal(odd, odd.conj().T)
    full = np.linalg.eigvalsh(h)
    split = np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
    scale = np.max(np.abs(full))
    assert np.max(np.abs(split - full)) <= 1e-12 * scale
    # both solves are backward stable: each ground is within a few ulps of ||H|| of the truth
    assert abs(split[0] - full[0]) <= 16 * np.spacing(scale)
    # one path per input: the split at 256 rows (EXCHANGE_SPLIT_MIN_DIM), one full solve below
    assert vqe.exact_ground(h) == (split[0] if n_qubits == 8 else full[0])


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exchange_split_finds_a_ground_in_the_odd_sector(kind):
    """-4 (I - SWAP)/2 lowers every exchange-odd state by 4, far below the even block."""
    h = exchange_symmetric(np.random.default_rng(11), 8, kind) / 64
    swap = np.eye(256).reshape(16, 16, 16, 16).transpose(0, 1, 3, 2).reshape(256, 256)
    h = h - 2.0 * (np.eye(256) - swap)
    even, odd = vqe._exchange_blocks(h)
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
    assert vqe._exchange_blocks(h) is None
    assert vqe.exact_ground(h) == float(np.linalg.eigvalsh(h)[0])


@pytest.mark.parametrize("preset", [name for name, cfg in presets.PRESETS.items() if "model" in cfg])
def test_exchange_split_on_presets_matches_the_full_solve(preset):
    """Exactly the two-field presets commute with the mode exchange; table3's H misses it
    by its sum order, so it keeps the full solve."""
    cfg = presets.get_preset(preset)
    h = require_hermitian(models.build_model({k: cfg[k] for k in ("model", "params", "qubits",
                                                                  "basis")})[0])
    assert (vqe._exchange_blocks(h) is not None) == (preset in ("table4-16", "table4-64", "table4-256", "table5"))
    assert vqe.exact_ground(h) == pytest.approx(float(np.linalg.eigvalsh(h)[0]), rel=1e-14)


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
