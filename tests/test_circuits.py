import tracemalloc

import numpy as np
import pytest

from qcosmo import circuits
from qcosmo.bases import MAX_QUBITS
from qcosmo.circuits import AnsatzSpec, apply_circuit, efficient_su2_ansatz
from qcosmo.errors import ShapeError


def gate_list(spec):
    """The ansatz of ``spec`` spelled out gate by gate, in its documented order.

    (reps+1) layers, each every rotation kind on every qubit, with CNOT(i, j)
    for all i < j between layers. A rotation is ``(kind, qubit, slot)``, its
    slot counting the rotations before it, and a CNOT ``("cnot", control,
    target)``.
    """
    n, gates, slot = spec.n_qubits, [], 0
    for layer in range(spec.reps + 1):
        if layer:
            gates += [("cnot", i, j) for i in range(n) for j in range(i + 1, n)]
        for kind in spec.rotations:
            for q in range(n):
                gates.append((kind, q, slot))
                slot += 1
    return gates


def rotation(kind, t):
    if kind == "ry":
        return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]],
                        dtype=complex)
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def cnot(psi, n, control, target):
    """CNOT on a state seen as an n-axis tensor: flip the target axis where the control is 1."""
    t = psi.reshape((2,) * n).copy()
    ctrl_one = np.take(t, 1, axis=control)
    # the control axis is gone after take(), so later axes shift down by one
    flipped = np.flip(ctrl_one, axis=target if target < control else target - 1)
    slicer = [slice(None)] * n
    slicer[control] = 1
    t[tuple(slicer)] = flipped
    return t.reshape(-1)


def interpret(spec, params, init=None):
    """The former per-gate interpreter of apply_circuit, kept as its oracle.

    It builds a fresh 2x2 per rotation, applied with einsum, and copies the
    state for every CNOT.
    """
    n = spec.n_qubits
    psi = circuits.zero_state(n) if init is None else np.array(init, dtype=complex)
    for name, qubit, arg in gate_list(spec):
        if name == "cnot":
            psi = cnot(psi, n, qubit, arg)
            continue
        u = rotation(name, params[arg])
        psi = np.einsum("ab,ibj->iaj", u, psi.reshape(2**qubit, 2, -1)).reshape(-1)
    return psi


def dense_unitary(spec, params):
    """Oracle: build the full gate product as a dense matrix."""
    n = spec.n_qubits
    dim = 2**n
    u_total = np.eye(dim, dtype=complex)
    for name, qubit, arg in gate_list(spec):
        if name == "cnot":
            full = np.zeros((dim, dim), dtype=complex)
            for idx in range(dim):
                c_bit = (idx >> (n - 1 - qubit)) & 1
                j = idx ^ (1 << (n - 1 - arg)) if c_bit else idx
                full[j, idx] = 1.0
            u_total = full @ u_total
            continue
        mats = [rotation(name, params[arg]) if q == qubit else np.eye(2) for q in range(n)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        u_total = full @ u_total
    return u_total


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def test_ansatz_param_counts():
    assert efficient_su2_ansatz(AnsatzSpec(4, reps=3)).n_params == 32
    # one qubit has no CNOT, so its two layers run as one
    one = efficient_su2_ansatz(AnsatzSpec(1, reps=1, rotations=("ry",)))
    assert (one.n_params, one.runs, one.kinds) == (2, 1, ("ry", "ry"))
    # two qubits: one CNOT(0, 1), which swaps |10> and |11>
    two = efficient_su2_ansatz(AnsatzSpec(2, reps=1))
    assert (two.n_params, two.runs, two.kinds) == (8, 2, ("ry", "rz"))
    assert two.perm.tolist() == [0, 1, 3, 2]


def test_ansatz_is_immutable():
    ansatz = efficient_su2_ansatz(AnsatzSpec(2, reps=1))
    with pytest.raises(AttributeError):
        ansatz.runs = 3
    with pytest.raises(ValueError):
        ansatz.perm[0] = 1


def test_empty_circuit_identity():
    # zero angles on one qubit make every gate the identity, so init comes back
    psi = np.array([0.6, 0.8j], dtype=complex)
    ansatz = efficient_su2_ansatz(AnsatzSpec(1, reps=1, rotations=("ry",)))
    out = apply_circuit(ansatz, np.zeros(ansatz.n_params), psi)
    assert np.allclose(out, psi)


def test_ry_pi_flips():
    ansatz = efficient_su2_ansatz(AnsatzSpec(1, reps=1, rotations=("ry",)))
    out = apply_circuit(ansatz, [np.pi, 0.0])
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
        dense = dense_unitary(spec, params) @ circuits.zero_state(3)
        assert np.max(np.abs(fast - dense)) <= 1e-10


def test_cnot_truth_table():
    # zero angles leave only the CNOT(0, 1): |10> -> |11>, |11> -> |10>, |0x> untouched
    ansatz = efficient_su2_ansatz(AnsatzSpec(2, reps=1, rotations=("ry",)))
    for idx, expected in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        psi = np.zeros(4, dtype=complex)
        psi[idx] = 1.0
        out = apply_circuit(ansatz, np.zeros(ansatz.n_params), psi)
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
    with pytest.raises(ShapeError):
        apply_circuit(circuit, np.zeros(p), np.zeros(3))


@pytest.mark.parametrize("kwargs", [{"reps": 0}, {"rotations": ()}, {"rotations": ("rx",)},
                                    {"n_qubits": 0}, {"n_qubits": -1},
                                    {"n_qubits": MAX_QUBITS + 1}])
def test_ansatz_spec_rejects(kwargs):
    with pytest.raises(ShapeError):
        AnsatzSpec(**{"n_qubits": 2, **kwargs})


def assert_matches_oracles(spec, params, init=None):
    out = apply_circuit(efficient_su2_ansatz(spec), params, init)
    assert np.max(np.abs(out - interpret(spec, params, init))) <= 1e-14
    start = circuits.zero_state(spec.n_qubits) if init is None else init
    assert np.max(np.abs(out - dense_unitary(spec, params) @ start)) <= 1e-10


ROTATION_FORMS = [("rz", "ry"), ("ry",), ("ry", "ry", "rz"), ("rz",)]


@pytest.mark.parametrize("rotations", ROTATION_FORMS)
@pytest.mark.parametrize("n", range(1, 9))
def test_compiled_matches_interpreter(n, rotations):
    # n // 2 qubits go left and the rest right, so at odd n the right factor is the larger
    rng = np.random.default_rng(n)
    spec = AnsatzSpec(n, reps=2, rotations=rotations)
    assert_matches_oracles(spec, rng.uniform(-np.pi, np.pi, spec.n_params))
    assert_matches_oracles(spec, rng.uniform(-np.pi, np.pi, spec.n_params), random_state(rng, n))


def test_compiled_matches_interpreter_at_table4_256_depth():
    # the table4-256 ansatz: 8 qubits, reps 5, 96 parameters
    spec = AnsatzSpec(8, reps=5)
    rng = np.random.default_rng(12)
    assert_matches_oracles(spec, rng.uniform(-np.pi, np.pi, spec.n_params))


def angles_on(spec, qubits, rng):
    """Random angles on the rotations of ``qubits``, zero on every other qubit's."""
    params = np.zeros(spec.n_params)
    for name, qubit, slot in gate_list(spec):
        if name != "cnot" and qubit in qubits:
            params[slot] = rng.uniform(-np.pi, np.pi)
    return params


@pytest.mark.parametrize("qubits", [(0,), (1, 2), (0, 2)])
def test_layer_in_left_factor_only(qubits):
    # at 6 qubits the left factor holds qubits 0-2; every right-factor chain fuses to the identity
    spec = AnsatzSpec(6, reps=2, rotations=("ry", "rz"))
    rng = np.random.default_rng(13)
    init = random_state(rng, 6)
    assert_matches_oracles(spec, angles_on(spec, qubits, rng))
    assert_matches_oracles(spec, angles_on(spec, qubits, rng), init)


@pytest.mark.parametrize("qubits", [(3,), (4, 5), (5, 3)])
def test_layer_in_right_factor_only(qubits):
    # at 6 qubits the right factor holds qubits 3-5; every left-factor chain fuses to the identity
    spec = AnsatzSpec(6, reps=2, rotations=("rz", "ry"))
    rng = np.random.default_rng(14)
    init = random_state(rng, 6)
    assert_matches_oracles(spec, angles_on(spec, qubits, rng))
    assert_matches_oracles(spec, angles_on(spec, qubits, rng), init)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_layer_touching_one_qubit_at_odd_splits(n):
    # n // 2 qubits go left and the rest right, so the right factor is the larger
    spec = AnsatzSpec(n, reps=1, rotations=("ry", "rz", "ry"))
    rng = np.random.default_rng(n)
    init = random_state(rng, n)
    for q in sorted({0, n // 2 - 1, n // 2, n - 1} - {-1}):
        assert_matches_oracles(spec, angles_on(spec, (q,), rng))
        assert_matches_oracles(spec, angles_on(spec, (q,), rng), init)


def test_compiled_empty_circuit_and_init():
    # zero angles leave only the CNOT blocks acting on init
    rng = np.random.default_rng(8)
    init = random_state(rng, 3)
    spec = AnsatzSpec(3, reps=1)
    assert_matches_oracles(spec, np.zeros(spec.n_params), init)
    assert_matches_oracles(spec, rng.uniform(-np.pi, np.pi, spec.n_params), init)


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


@pytest.mark.parametrize("rotations", ROTATION_FORMS)
@pytest.mark.parametrize("n", range(1, 9))
def test_stack_matches_single_calls(n, rotations):
    # more rows than one chunk, with a part-filled last chunk
    circuit = efficient_su2_ansatz(AnsatzSpec(n, reps=2, rotations=rotations))
    rows = circuits.STACK_CHUNK + 5
    rng = np.random.default_rng(n)
    stack = rng.uniform(-np.pi, np.pi, (rows, circuit.n_params))
    assert_stack_matches_rows(circuit, stack)
    assert_stack_matches_rows(circuit, stack, random_state(rng, n))


def test_stack_hand_built_circuit_and_init():
    rng = np.random.default_rng(9)
    init = random_state(rng, 3)
    circuit = efficient_su2_ansatz(AnsatzSpec(3, reps=2, rotations=("ry", "rz", "ry")))
    stack = rng.uniform(-np.pi, np.pi, (7, circuit.n_params))
    assert_stack_matches_rows(circuit, stack)
    assert_stack_matches_rows(circuit, stack, init)
    assert_stack_matches_rows(circuit, np.zeros((3, circuit.n_params)), init)


def test_stack_memory_is_bounded_by_chunk():
    # 2,000 parameters: unchunked, the per-row slot matrices alone would take 256 MB
    circuit = efficient_su2_ansatz(AnsatzSpec(1, reps=999))
    stack = np.random.default_rng(10).uniform(-np.pi, np.pi, (2000, circuit.n_params))
    tracemalloc.start()
    try:
        out = apply_circuit(circuit, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, 2)
    assert peak < 32 * 2**20
