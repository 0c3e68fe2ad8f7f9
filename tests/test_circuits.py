import numpy as np
import pytest

from qcosmo import circuits
from qcosmo.circuits import AnsatzSpec, Circuit, apply_circuit, efficient_su2_ansatz
from qcosmo.errors import ShapeError


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
    with pytest.raises(ShapeError):
        apply_circuit(circuit, np.zeros(circuit.n_params + 1))


def test_dump_format():
    c = Circuit(2).ry(0).rz(1).cnot(0, 1)
    assert c.dump().splitlines() == ["RY q0 p0", "RZ q1 p1", "CNOT q0 q1"]


@pytest.mark.parametrize("kwargs", [{"reps": 0}, {"rotations": ()}, {"rotations": ("rx",)}])
def test_ansatz_spec_rejects(kwargs):
    with pytest.raises(ShapeError):
        AnsatzSpec(2, **kwargs)
