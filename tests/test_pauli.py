import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from qcosmo import circuits, models, pauli, presets, vqe
from qcosmo.bases import BasisKind, build_position
from qcosmo.errors import HermiticityError, ShapeError


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def brute_force_decompose(h):
    """Reference decomposition with explicit Kronecker products."""
    n = int(np.log2(h.shape[0]))
    from itertools import product

    coeffs = {}
    for labels in product("IXYZ", repeat=n):
        p = kron_all([pauli.PAULI_MATRICES[c] for c in labels])
        coeffs["".join(labels)] = np.trace(p @ h) / h.shape[0]
    return coeffs


# The former per-axis tensordot transform and its two complex kernels, frozen
# here as the oracle that pauli's real-kernel transform must match bit for bit.
# W[s, 2j+k] = P_s[k, j]: contracts one (row, col) qubit index pair into a
# Pauli-coefficient axis (trace convention Tr(P H)).
ORACLE_W = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
# V[2j+k, s] = P_s[j, k]: inverse direction, Pauli axis back to matrix indices.
ORACLE_V = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def tensordot_transform(t, kernel):
    """Apply the per-qubit 4x4 kernel along every axis of a (4,) * n tensor, qubit 0 first."""
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [ax])), 0, ax)
    return t


def oracle_coeffs(h):
    """Every one of the 4**n complex coefficients Tr(P H) / 2**n, by the tensordot transform."""
    h = np.asarray(h, dtype=complex)
    n = int(np.log2(h.shape[0]))
    order = [ax for q in range(n) for ax in (q, n + q)]
    t = h.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    return tensordot_transform(t, ORACLE_W).reshape(-1) / h.shape[0]


def loop_decompose(h, zero_tol=1e-12):
    """decompose's former per-term listing, kept as its oracle: (coeff, label) pairs."""
    n = int(np.log2(h.shape[0]))
    coeffs = oracle_coeffs(h)
    terms = []
    for flat_index in np.nonzero(np.abs(coeffs) > zero_tol)[0]:
        digits = np.base_repr(flat_index, 4).zfill(n)
        label = "".join("IXYZ"[int(d)] for d in digits)
        terms.append((float(coeffs[flat_index].real), label))
    return terms


def loop_reconstruct(s):
    """reconstruct's former per-term fill of the coefficient tensor, kept as its oracle."""
    n = s.n_qubits
    coeffs = np.zeros((4,) * n, dtype=complex)
    for label, coeff in zip(s.labels(), s.coeff):
        coeffs[tuple("IXYZ".index(c) for c in label)] = coeff
    t = tensordot_transform(coeffs, ORACLE_V).reshape((2,) * (2 * n))
    return t.transpose([2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]).reshape(2**n, 2**n)


def loop_expectation(s, psi):
    """expectation's former label-parsing loop, kept as its oracle."""
    n = s.n_qubits
    j = np.arange(psi.size)
    total = 0.0 + 0.0j
    for coeff, label in zip(s.coeff.tolist(), s.labels()):
        flip = y_mask = z_mask = ny = 0
        for q, ch in enumerate(label):
            bit = 1 << (n - 1 - q)
            if ch == "X":
                flip |= bit
            elif ch == "Y":
                flip |= bit
                y_mask |= bit
                ny += 1
            elif ch == "Z":
                z_mask |= bit
        signs = (-1.0) ** np.bitwise_count(j & (y_mask | z_mask))
        amp = 1j**ny * signs
        total += coeff * np.vdot(psi[j ^ flip], amp * psi)
    return float(total.real)


def preset_hamiltonian(name):
    cfg = presets.get_preset(name)
    h, _ = models.build_model({k: cfg[k] for k in ("model", "qubits", "basis")})
    return h


def assert_listing_matches_loop(h):
    s = pauli.decompose(h)
    assert list(zip(s.coeff.tolist(), s.labels())) == loop_decompose(h)
    assert np.array_equal(pauli.reconstruct(s), loop_reconstruct(s))
    return s


@pytest.mark.parametrize("n", range(1, 9))
def test_listing_matches_loop(n):
    rng = np.random.default_rng(n)
    # a sparse real symmetric H leaves zero coefficients for zero_tol to drop
    a = rng.normal(size=(2**n, 2**n)) * (rng.random((2**n, 2**n)) < 0.3)
    assert_listing_matches_loop(a + a.T)


def test_listing_matches_loop_zero_and_table3():
    assert len(assert_listing_matches_loop(np.zeros((8, 8)))) == 0
    assert len(assert_listing_matches_loop(preset_hamiltonian("table3"))) == 17801


MODEL_PRESETS = [name for name, cfg in presets.PRESETS.items() if "model" in cfg]


def assert_bit_identical_to_oracle(h):
    """decompose's index and coeff and reconstruct's matrix equal the tensordot oracle's."""
    s = pauli.decompose(h)
    coeffs = oracle_coeffs(h)
    kept = np.flatnonzero(np.abs(coeffs) > 1e-12)
    assert np.array_equal(s.index, kept)
    assert np.array_equal(s.coeff, coeffs.real[kept])
    assert np.array_equal(pauli.reconstruct(s), loop_reconstruct(s))
    return s


@pytest.mark.parametrize("preset", MODEL_PRESETS)
def test_bit_identical_to_oracle_on_presets(preset):
    assert_bit_identical_to_oracle(preset_hamiltonian(preset))


@pytest.mark.parametrize("n", range(1, 9))
def test_bit_identical_to_oracle_random_real(n):
    rng = np.random.default_rng(100 + n)
    a = rng.normal(size=(2**n, 2**n))
    s = assert_bit_identical_to_oracle(a + a.T)
    assert not any(label.count("Y") % 2 for label in s.labels())


@pytest.mark.parametrize("n", range(1, 9))
def test_bit_identical_to_oracle_random_complex(n):
    rng = np.random.default_rng(200 + n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    s = assert_bit_identical_to_oracle(a + a.conj().T)
    # odd-Y terms take reconstruct's complex path
    assert any(label.count("Y") % 2 for label in s.labels())


@pytest.mark.parametrize("preset", ["table1", "table3", "table4-256", "table5"])
def test_to_text_matches_loop(preset):
    h = preset_hamiltonian(preset)
    text = "\n".join(f"{coeff:.17g} {label}" for coeff, label in loop_decompose(h))
    assert pauli.decompose(h).to_text() == text


# each model preset at its own ansatz depth
@pytest.mark.parametrize("preset, reps", [(name, cfg["vqe"].get("reps", circuits.AnsatzSpec.reps))
                                          for name, cfg in presets.PRESETS.items() if "model" in cfg])
def test_expectation_matches_loop(preset, reps):
    h = preset_hamiltonian(preset)
    s = pauli.decompose(h)
    circuit = circuits.efficient_su2_ansatz(circuits.AnsatzSpec(n_qubits=s.n_qubits, reps=reps))
    rng = np.random.default_rng(5)
    for _ in range(2):
        psi = circuits.apply_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_params))
        ref = loop_expectation(s, psi)
        assert pauli.expectation(s, psi) == pytest.approx(ref, rel=1e-12, abs=0)


def test_arrays_are_read_only():
    s = pauli.decompose(models.starobinsky_hamiltonian(models.StarobinskyParams(), 2))
    with pytest.raises(ValueError):
        s.index[0] = 1
    with pytest.raises(ValueError):
        s.coeff[0] = 1.0
    with pytest.raises(FrozenInstanceError):
        s.index = np.array([0])


@pytest.mark.parametrize(
    "index, coeff",
    [([0, 0], [1.0, 2.0]), ([16], [1.0]), ([-1], [1.0]), ([0, 1], [1.0]), ([[0]], [[1.0]]),
     ([0], np.array([1 + 1j])), ([0], ["1.0"])],
)
def test_index_arrays_checked(index, coeff):
    with pytest.raises(ShapeError):
        pauli.PauliSum(2, index, coeff)


@pytest.mark.parametrize(
    "labels, message",
    [
        (["ZZ", "Z"], "bad label 'Z' for 2 qubits"),
        (["ZZ", "XQ", "ZZ"], "bad label 'XQ' for 2 qubits"),
        (["ZZ", "XY", "ZZ", "Q"], "duplicate label 'ZZ'"),
        (["ZZ", 5], "bad label 5 for 2 qubits"),
    ],
)
def test_bad_labels_name_the_first_fault(labels, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        pauli.PauliSum.from_labels(2, labels, [1.0] * len(labels))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0 ZZ\n\n1.0 Z extra", "line 3: expected 'coeff LABEL', got '1.0 Z extra'"),
        ("abc Z", "line 1: expected 'coeff LABEL', got 'abc Z'"),
        ("0.5 X\nZ", "line 2: expected 'coeff LABEL', got 'Z'"),
        ("\n  \n", "empty Pauli-sum text"),
    ],
)
def test_bad_text_names_the_line(text, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        pauli.PauliSum.from_text(text)


def test_identity_2x2():
    s = pauli.decompose(np.eye(2, dtype=complex))
    assert len(s) == 1
    assert s.labels() == ["I"] and abs(s.coeff[0] - 1.0) < 1e-14


def test_xosc_2x2():
    s = pauli.decompose(build_position(BasisKind.OSCILLATOR, 2))
    assert len(s) == 1
    assert s.labels() == ["X"]
    assert abs(s.coeff[0] - 1 / np.sqrt(2)) < 1e-12


def test_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        s = pauli.decompose(h, zero_tol=0.0)
        ref = brute_force_decompose(h)
        got = dict(zip(s.labels(), s.coeff))
        for label, c in ref.items():
            assert abs(got.get(label, 0.0) - c.real) < 1e-12
            assert abs(c.imag) < 1e-12


def test_starobinsky_term_count():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 4)
    assert len(pauli.decompose(h)) == 135


def test_roundtrip_model_one():
    h = models.dark_matter_model_one(models.DarkMatterParams(), 2)
    s = pauli.decompose(h)
    back = pauli.reconstruct(s)
    assert np.max(np.abs(back - h)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reconstruct_matches_kron_sum(n):
    rng = np.random.default_rng(n)
    labels = sorted({"".join(rng.choice(list("IXYZ"), n)) for _ in range(12)})
    coeffs = [float(rng.normal()) for _ in labels]
    ref = sum(c * kron_all([pauli.PAULI_MATRICES[ch] for ch in label])
              for c, label in zip(coeffs, labels))
    s = pauli.PauliSum.from_labels(n, labels, coeffs)
    assert np.max(np.abs(pauli.reconstruct(s) - ref)) <= 1e-12


def test_reconstruct_empty_and_single():
    assert np.max(np.abs(pauli.reconstruct(pauli.PauliSum.from_labels(2, [], [])))) == 0.0
    s = pauli.PauliSum.from_labels(2, ["ZZ"], [2.0])
    assert np.allclose(pauli.reconstruct(s), np.diag([2.0, -2.0, -2.0, 2.0]))


def test_parseval_identity():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        dim = 2**n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        s = pauli.decompose(h, zero_tol=0.0)
        lhs = np.sum(s.coeff**2) * dim
        rhs = np.linalg.norm(h, "fro") ** 2
        assert abs(lhs - rhs) <= 1e-8 * rhs


def test_count_permutation_covariant():
    h = models.dark_matter_model_one(models.DarkMatterParams(), 2)
    n = 4
    # swap qubits 0 and 3 of the 16x16 matrix
    perm = []
    for idx in range(16):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        bits[0], bits[3] = bits[3], bits[0]
        perm.append(sum(b << (n - 1 - q) for q, b in enumerate(bits)))
    hp = h[np.ix_(perm, perm)]
    assert len(pauli.decompose(hp)) == len(pauli.decompose(h))


def test_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ShapeError):
        pauli.decompose(np.eye(3, dtype=complex))
    with pytest.raises(ShapeError, match="^dimension 0 is not a power of 2 >= 2$"):
        pauli.decompose(np.zeros((0, 0)))
    with monkeypatch.context() as m:
        # refused on its dimension, before the transform runs
        m.setattr(pauli, "_pauli_transform", lambda *a: pytest.fail("transform ran"))
        with pytest.raises(ShapeError, match="^dimension 512 is over the limit of 256 \\(8 qubits\\)$"):
            pauli.decompose(np.diag(np.arange(512.0)))
    with pytest.raises(HermiticityError):
        pauli.decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expectation_basics():
    z = pauli.PauliSum.from_labels(1, ["Z"], [1.0])
    assert pauli.expectation(z, np.array([1, 0], dtype=complex)) == pytest.approx(1.0)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert pauli.expectation(z, plus) == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_dense_ground():
    h = models.dark_matter_model_one(models.DarkMatterParams(), 2)
    vec = np.linalg.eigh(h)[1][:, 0]
    s = pauli.decompose(h)
    assert pauli.expectation(s, vec) == pytest.approx(vqe.exact_ground(h), abs=1e-8)


def test_expectation_matches_dense_random_states():
    rng = np.random.default_rng(11)
    h = models.dark_matter_model_one(models.DarkMatterParams(), 2)
    s = pauli.decompose(h)
    for _ in range(20):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        dense = np.vdot(psi, h @ psi).real
        assert pauli.expectation(s, psi) == pytest.approx(dense, abs=1e-9)


def test_text_roundtrip():
    h = models.starobinsky_hamiltonian(models.StarobinskyParams(), 2)
    s = pauli.decompose(h)
    s2 = pauli.PauliSum.from_text(s.to_text())
    assert s2.n_qubits == s.n_qubits
    assert s2.labels() == s.labels() and np.array_equal(s2.coeff, s.coeff)


def test_qubit_limit_checked_at_construction():
    n = models.MAX_QUBITS + 1
    with pytest.raises(ShapeError, match=f"for {n} qubits"):
        pauli.PauliSum(n, [0], [1.0])
    with pytest.raises(ShapeError, match=f"for {n} qubits"):
        pauli.PauliSum.from_labels(n, ["Z" * n], [1.0])
    with pytest.raises(ShapeError, match=f"for {n} qubits"):
        pauli.PauliSum.from_text(f"1.0 {'Z' * n}")


def test_duplicate_labels_rejected():
    with pytest.raises(ShapeError):
        pauli.PauliSum.from_labels(1, ["Z", "Z"], [1.0, 0.5])


def test_import_loads_only_bases_and_errors():
    code = ("import sys, qcosmo.pauli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qcosmo'))")
    env = {**os.environ, "PYTHONPATH": str(Path(pauli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == str(["qcosmo", "qcosmo.bases", "qcosmo.errors", "qcosmo.pauli"])
