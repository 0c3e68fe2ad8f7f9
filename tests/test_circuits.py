import tracemalloc

import numpy as np
import pytest

from qcosmo import circuits
from qcosmo.circuits import AnsatzSpec, Circuit, apply_circuit, efficient_su2_ansatz
from qcosmo.errors import ShapeError


def interpret(circuit, params, init=None):
    """The former per-gate interpreter of apply_circuit, kept as its oracle.

    It builds a fresh 2x2 per rotation, applied with einsum, and copies the
    state for every CNOT.
    """
    n = circuit.n_qubits
    psi = circuits.zero_state(n) if init is None else np.array(init, dtype=complex)
    for g in circuit.gates:
        if g.name == "cnot":
            psi = circuits._apply_cnot(psi, n, g.qubit, g.target)
            continue
        t = params[g.slot]
        if g.name == "ry":
            u = np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]],
                         dtype=complex)
        else:
            u = np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])
        psi = np.einsum("ab,ibj->iaj", u, psi.reshape(2**g.qubit, 2, -1)).reshape(-1)
    return psi


def dense_unitary(circuit, params):
    """Oracle: build the full gate product as a dense matrix."""
    n = circuit.n_qubits
    dim = 2**n
    u_total = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        if g.name == "ry":
            t = params[g.slot]
            u = np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]], dtype=complex)
        elif g.name == "rz":
            t = params[g.slot]
            u = np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
        elif g.name == "cnot":
            full = np.zeros((dim, dim), dtype=complex)
            for idx in range(dim):
                c_bit = (idx >> (n - 1 - g.qubit)) & 1
                j = idx ^ (1 << (n - 1 - g.target)) if c_bit else idx
                full[j, idx] = 1.0
            u_total = full @ u_total
            continue
        mats = [u if q == g.qubit else np.eye(2) for q in range(n)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        u_total = full @ u_total
    return u_total


def test_ansatz_param_counts():
    assert efficient_su2_ansatz(AnsatzSpec(4, reps=3)).n_params == 32
    c1 = efficient_su2_ansatz(AnsatzSpec(1, reps=1, rotations=("ry",)))
    assert c1.n_params == 2
    assert all(g.name != "cnot" for g in c1.gates)
    c2 = efficient_su2_ansatz(AnsatzSpec(2, reps=1))
    assert c2.n_params == 8
    cnots = [g for g in c2.gates if g.name == "cnot"]
    assert len(cnots) == 1 and (cnots[0].qubit, cnots[0].target) == (0, 1)


def test_empty_circuit_identity():
    psi = np.array([0.6, 0.8j], dtype=complex)
    out = apply_circuit(Circuit(1), [], psi)
    assert np.allclose(out, psi)


def test_ry_pi_flips():
    c = Circuit(1).ry(0)
    out = apply_circuit(c, [np.pi])
    assert np.allclose(out, [0, 1], atol=1e-12)


def test_zero_params_leave_vacuum():
    spec = AnsatzSpec(3, reps=2)
    circuit = efficient_su2_ansatz(spec)
    out = apply_circuit(circuit, np.zeros(circuit.n_params))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


def test_matches_dense_unitary_oracle():
    rng = np.random.default_rng(5)
    spec = AnsatzSpec(3, reps=2)
    circuit = efficient_su2_ansatz(spec)
    for _ in range(5):
        params = rng.uniform(-np.pi, np.pi, circuit.n_params)
        fast = apply_circuit(circuit, params)
        dense = dense_unitary(circuit, params) @ circuits.zero_state(3)
        assert np.max(np.abs(fast - dense)) <= 1e-10


def test_cnot_truth_table():
    # |10> -> |11>, |11> -> |10>, |0x> untouched
    c = Circuit(2).cnot(0, 1)
    for idx, expected in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        psi = np.zeros(4, dtype=complex)
        psi[idx] = 1.0
        out = apply_circuit(c, [], psi)
        assert abs(out[expected] - 1.0) < 1e-14


def test_unitarity_random_params():
    rng = np.random.default_rng(9)
    circuit = efficient_su2_ansatz(AnsatzSpec(4, reps=3))
    for _ in range(10):
        out = apply_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_determinism():
    circuit = efficient_su2_ansatz(AnsatzSpec(3, reps=1))
    params = np.linspace(-1, 1, circuit.n_params)
    a = apply_circuit(circuit, params)
    b = apply_circuit(circuit, params)
    assert np.array_equal(a, b)


def test_expectation_dense():
    z = np.diag([1.0, -1.0]).astype(complex)
    one = np.array([0, 1], dtype=complex)
    assert circuits.expectation_dense(z, one) == pytest.approx(-1.0)


def test_expectation_variational_bound():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    lam_min = np.linalg.eigvalsh(h)[0]
    circuit = efficient_su2_ansatz(AnsatzSpec(3, reps=2))
    for _ in range(25):
        psi = apply_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))
        assert circuits.expectation_dense(h, psi) >= lam_min - 1e-9


def test_ground_vector_expectation():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(h)
    assert circuits.expectation_dense(h, v[:, 0]) == pytest.approx(w[0], abs=1e-10)


def test_param_count_mismatch():
    circuit = efficient_su2_ansatz(AnsatzSpec(2, reps=1))
    p = circuit.n_params
    for bad in (np.zeros(p + 1), np.zeros((3, p + 1)), np.zeros((2, 3, p)), 0.0):
        with pytest.raises(ShapeError):
            apply_circuit(circuit, bad)


@pytest.mark.parametrize("kwargs", [{"reps": 0}, {"rotations": ()}, {"rotations": ("rx",)}])
def test_ansatz_spec_rejects(kwargs):
    with pytest.raises(ShapeError):
        AnsatzSpec(2, **kwargs)


def assert_matches_oracles(circuit, params, init=None):
    out = apply_circuit(circuit, params, init)
    assert np.max(np.abs(out - interpret(circuit, params, init))) <= 1e-14
    start = circuits.zero_state(circuit.n_qubits) if init is None else init
    assert np.max(np.abs(out - dense_unitary(circuit, params) @ start)) <= 1e-10


@pytest.mark.parametrize("rotations", [("rz", "ry"), ("ry",)])
@pytest.mark.parametrize("n", range(1, 9))
def test_compiled_matches_interpreter(n, rotations):
    rng = np.random.default_rng(n)
    circuit = efficient_su2_ansatz(AnsatzSpec(n, reps=2, rotations=rotations))
    assert_matches_oracles(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))


def test_compiled_matches_interpreter_at_table4_256_depth():
    # the table4-256 ansatz: 8 qubits, reps 5, 96 parameters
    circuit = efficient_su2_ansatz(AnsatzSpec(8, reps=5))
    rng = np.random.default_rng(12)
    assert_matches_oracles(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))


@pytest.mark.parametrize("qubits", [(0,), (1, 2), (0, 2)])
def test_layer_in_left_factor_only(qubits):
    # at 6 qubits the left factor holds qubits 0-2; the right one stays the identity
    c = Circuit(6)
    for q in qubits:
        c.ry(q).rz(q)
    c.cnot(0, 5).cnot(4, 1)
    for q in qubits:
        c.ry(q)
    rng = np.random.default_rng(13)
    init = rng.normal(size=64) + 1j * rng.normal(size=64)
    init /= np.linalg.norm(init)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params), init)


@pytest.mark.parametrize("qubits", [(3,), (4, 5), (5, 3)])
def test_layer_in_right_factor_only(qubits):
    # at 6 qubits the right factor holds qubits 3-5; the left one stays the identity
    c = Circuit(6)
    for q in qubits:
        c.rz(q).ry(q)
    c.cnot(5, 0).cnot(3, 2)
    for q in qubits:
        c.rz(q)
    rng = np.random.default_rng(14)
    init = rng.normal(size=64) + 1j * rng.normal(size=64)
    init /= np.linalg.norm(init)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params), init)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_layer_touching_one_qubit_at_odd_splits(n):
    # n // 2 qubits go left and the rest right, so the right factor is the larger
    rng = np.random.default_rng(n)
    init = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    init /= np.linalg.norm(init)
    for q in sorted({0, n // 2 - 1, n // 2, n - 1} - {-1}):
        c = Circuit(n).ry(q).rz(q).ry(q)
        assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
        assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params), init)


def test_layers_between_descending_cnots():
    # every CNOT run has control > target, and each rotation run straddles the split
    c = Circuit(5).ry(0).rz(4).ry(2)
    c.cnot(4, 0).cnot(2, 1)
    c.rz(1).ry(3).rz(0)
    c.cnot(3, 2).cnot(1, 0).cnot(4, 3)
    c.ry(4).ry(1).rz(4).rz(2)
    c.cnot(2, 0)
    c.ry(3)
    rng = np.random.default_rng(15)
    init = rng.normal(size=32) + 1j * rng.normal(size=32)
    init /= np.linalg.norm(init)
    for _ in range(3):
        assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
        assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params), init)
    assert_stack_matches_rows(c, rng.uniform(-np.pi, np.pi, (9, c.n_params)), init)


def test_compiled_hand_built_circuit():
    # a CNOT splits two rotation runs on qubit 0; CNOT(2, 0) has control > target
    c = Circuit(3).ry(0).rz(0).rz(2).cnot(0, 1).ry(0).cnot(2, 0).cnot(1, 2).rz(1).ry(1).ry(0)
    rng = np.random.default_rng(3)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))


def test_compiled_empty_circuit_and_init():
    rng = np.random.default_rng(8)
    init = rng.normal(size=8) + 1j * rng.normal(size=8)
    init /= np.linalg.norm(init)
    assert_matches_oracles(Circuit(3), [], init)
    circuit = efficient_su2_ansatz(AnsatzSpec(3, reps=1))
    assert_matches_oracles(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params), init)


def test_plan_rebuilt_after_circuit_grows(monkeypatch):
    compiled = []
    compile_ = circuits._compile
    monkeypatch.setattr(circuits, "_compile", lambda c: compiled.append(c) or compile_(c))
    c = Circuit(2).ry(0).cnot(0, 1)
    rng = np.random.default_rng(4)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
    c.rz(1).cnot(1, 0).ry(1)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
    assert len(compiled) == 2



def test_plan_independent_of_n_params():
    # qubit 0 fuses two slots and qubit 1 one, so qubit 1's chain is padded;
    # the padding must stay the identity when n_params changes under the plan
    c = Circuit(2).ry(0).rz(0).ry(1)
    rng = np.random.default_rng(5)
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))
    c.n_params += 2
    assert_matches_oracles(c, rng.uniform(-np.pi, np.pi, c.n_params))

def test_plan_built_once(monkeypatch):
    compiled = []
    compile_ = circuits._compile
    monkeypatch.setattr(circuits, "_compile", lambda c: compiled.append(c) or compile_(c))
    circuit = efficient_su2_ansatz(AnsatzSpec(4, reps=3))
    rng = np.random.default_rng(6)
    for _ in range(50):
        apply_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))
    assert len(compiled) == 1


def test_compiled_repeat_is_bit_identical():
    circuit = efficient_su2_ansatz(AnsatzSpec(8, reps=5))
    params = np.random.default_rng(7).uniform(-np.pi, np.pi, circuit.n_params)
    first = apply_circuit(circuit, params)
    fresh = efficient_su2_ansatz(AnsatzSpec(8, reps=5))
    for _ in range(3):
        assert np.array_equal(apply_circuit(circuit, params), first)
        assert np.array_equal(apply_circuit(fresh, params), first)


def assert_stack_matches_rows(circuit, stack, init=None):
    out = apply_circuit(circuit, stack, init)
    assert out.shape == (len(stack), 2**circuit.n_qubits)
    for row, params in zip(out, stack):
        assert np.array_equal(row, apply_circuit(circuit, params, init))


@pytest.mark.parametrize("rotations", [("rz", "ry"), ("ry",)])
@pytest.mark.parametrize("n", range(1, 9))
def test_stack_matches_single_calls(n, rotations):
    # more rows than one chunk, with a part-filled last chunk
    circuit = efficient_su2_ansatz(AnsatzSpec(n, reps=2, rotations=rotations))
    rows = circuits.STACK_CHUNK + 5
    stack = np.random.default_rng(n).uniform(-np.pi, np.pi, (rows, circuit.n_params))
    assert_stack_matches_rows(circuit, stack)


def test_stack_hand_built_circuit_and_init():
    rng = np.random.default_rng(9)
    init = rng.normal(size=8) + 1j * rng.normal(size=8)
    init /= np.linalg.norm(init)
    c = Circuit(3).ry(0).rz(0).rz(2).cnot(0, 1).ry(0).cnot(2, 0).cnot(1, 2).rz(1).ry(1).ry(0)
    stack = rng.uniform(-np.pi, np.pi, (7, c.n_params))
    assert_stack_matches_rows(c, stack)
    assert_stack_matches_rows(c, stack, init)
    assert_stack_matches_rows(Circuit(3), np.zeros((3, 0)), init)


def test_stack_memory_is_bounded_by_chunk():
    # 2,000 parameters: unchunked, the per-row slot matrices alone would take 256 MB
    circuit = efficient_su2_ansatz(AnsatzSpec(1, reps=999))
    stack = np.random.default_rng(10).uniform(-np.pi, np.pi, (2000, circuit.n_params))
    apply_circuit(circuit, stack[:1])  # compile the plan outside the measurement
    tracemalloc.start()
    try:
        out = apply_circuit(circuit, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, 2)
    assert peak < 32 * 2**20
