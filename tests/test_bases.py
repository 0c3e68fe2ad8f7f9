import tracemalloc
import warnings

import numpy as np
import pytest

from qcosmo import bases, circuits, evolution, pauli, vqe
from qcosmo.bases import BasisKind
from qcosmo.errors import (
    DomainError,
    HermiticityError,
    InvalidTruncationError,
    ShapeError,
    UnsupportedBasisError,
)
from test_models import former_apply_scalar_function

ALL_BASES = [BasisKind.OSCILLATOR, BasisKind.POSITION, BasisKind.FINITE_DIFFERENCE]


def test_position_oscillator_2x2():
    x = bases.build_position(BasisKind.OSCILLATOR, 2)
    expected = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    assert np.allclose(x, expected, atol=1e-12)


def test_position_grid_2x2():
    x = bases.build_position(BasisKind.POSITION, 2)
    # sqrt(2 pi / 8) * (2j - 3) for j = 1, 2
    assert np.allclose(np.diagonal(x), [-0.88622693, 0.88622693], atol=1e-8)


def test_position_fd_4x4():
    x = bases.build_position(BasisKind.FINITE_DIFFERENCE, 4)
    expected = np.sqrt(1.0 / 8.0) * np.array([-3, -1, 1, 3])
    assert np.allclose(np.diagonal(x), expected, atol=1e-12)


def test_momentum_oscillator_2x2():
    p = bases.build_momentum(BasisKind.OSCILLATOR, 2)
    expected = (1j / np.sqrt(2)) * np.array([[0, -1], [1, 0]])
    assert np.allclose(p, expected, atol=1e-12)


def test_momentum_position_basis_same_spectrum_as_x():
    for n in (4, 8, 16):
        x = bases.build_position(BasisKind.POSITION, n)
        p = bases.build_momentum(BasisKind.POSITION, n)
        assert np.allclose(
            np.linalg.eigvalsh(p), np.sort(np.real(np.diagonal(x))), atol=1e-10
        )


def test_fourier_matrix_unitary():
    for n in (2, 4, 8, 16):
        f = bases.fourier_matrix(n)
        assert np.max(np.abs(f.conj().T @ f - np.eye(n))) <= 1e-12


def test_commutator_corner_law():
    n = 16
    x = bases.build_position(BasisKind.OSCILLATOR, n)
    p = bases.build_momentum(BasisKind.OSCILLATOR, n)
    corner = np.zeros((n, n))
    corner[n - 1, n - 1] = 1.0
    expected = 1j * (np.eye(n) - n * corner)
    assert np.max(np.abs(x @ p - p @ x - expected)) <= 1e-12


def test_momentum_fd_raises():
    with pytest.raises(UnsupportedBasisError):
        bases.build_momentum(BasisKind.FINITE_DIFFERENCE, 4)


def test_momentum_squared_fd_2x2():
    p2 = bases.build_momentum_squared(BasisKind.FINITE_DIFFERENCE, 2)
    assert np.allclose(p2, [[2, -1], [-1, 2]], atol=1e-12)


def test_momentum_squared_fd_gershgorin():
    n = 4
    p2 = bases.build_momentum_squared(BasisKind.FINITE_DIFFERENCE, n)
    w = np.linalg.eigvalsh(p2)
    assert np.all(w >= -1e-12) and np.all(w <= 2 * n + 1e-12)


def test_truncated_oscillator_diagonal():
    n = 16
    x = bases.build_position(BasisKind.OSCILLATOR, n)
    p = bases.build_momentum(BasisKind.OSCILLATOR, n)
    h = (x @ x + p @ p) / 2
    expected = np.array([k + 0.5 for k in range(n - 1)] + [(n - 1) / 2])
    assert np.max(np.abs(h - np.diag(expected))) <= 1e-12
    assert abs(np.linalg.eigvalsh(h)[0] - 0.5) <= 1e-12


@pytest.mark.parametrize("basis", ALL_BASES)
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_all_outputs_hermitian_and_psd(basis, n):
    x = bases.build_position(basis, n)
    assert np.max(np.abs(x - x.conj().T)) <= 1e-12
    p2 = bases.build_momentum_squared(basis, n)
    assert np.max(np.abs(p2 - p2.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(p2)[0] >= -1e-10


@pytest.mark.parametrize("basis", ALL_BASES)
def test_invalid_truncation(basis):
    with pytest.raises(InvalidTruncationError):
        bases.build_position(basis, 1)


def test_apply_scalar_function_identity():
    x = bases.build_position(BasisKind.OSCILLATOR, 8)
    assert np.max(np.abs(bases.apply_scalar_function(x, lambda t: t) - x)) <= 1e-12


def test_apply_scalar_function_exp_diagonal():
    op = np.diag([0.0, np.log(2.0)]).astype(complex)
    out = bases.apply_scalar_function(op, np.exp)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


def test_apply_scalar_function_square_matches_product():
    x = bases.build_position(BasisKind.OSCILLATOR, 16)
    direct = x @ x
    via_spectral = bases.apply_scalar_function(x, lambda t: t**2)
    assert np.max(np.abs(direct - via_spectral)) <= 1e-10


def test_apply_scalar_function_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        bases.apply_scalar_function(np.array([[0, 1], [0, 0]], dtype=complex), np.exp)


def _symmetric(rng, dim, imag):
    a = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if imag else 0)
    return (a + a.conj().T) / (2.0 * np.sqrt(dim))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("f", [np.exp, lambda t: t**2], ids=["exp", "square"])
def test_apply_scalar_function_real_operator_stays_real(n, f):
    """A real symmetric operator gets a real eigh: float64 out, equal to the complex oracle."""
    op = _symmetric(np.random.default_rng(n), 2**n, imag=False)
    out = bases.apply_scalar_function(op, f)
    oracle = former_apply_scalar_function(op, f)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - oracle)) <= 1e-13 * max(1.0, np.max(np.abs(oracle)))


@pytest.mark.parametrize("n", [1, 4, 8])
def test_apply_scalar_function_complex_operator_keeps_former_bits(n):
    op = _symmetric(np.random.default_rng([n, 1]), 2**n, imag=True)
    out = bases.apply_scalar_function(op, np.exp)
    assert out.dtype == np.complex128
    assert np.array_equal(out, former_apply_scalar_function(op, np.exp))


def test_apply_scalar_function_diagonal_keeps_the_dtype_of_f():
    """The diagonal path casts nothing: a complex f of a real diagonal stays complex."""
    d = np.array([0.5, -1.0, 2.0])
    out = bases.apply_scalar_function(np.diag(d), lambda t: np.exp(-1j * t))
    assert np.array_equal(out, np.diag(np.exp(-1j * d)))
    assert bases.apply_scalar_function(np.diag(d), np.exp).dtype == np.float64


@pytest.mark.parametrize("op, diagonal", [
    (np.diag([1.0, -0.0]), True),
    (np.array([[1.0, -0.0], [-0.0, 2.0]]), True),
    (np.diag([1.0, np.nan]), True),  # only the off-diagonal entries decide
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), False),
    (np.array([[1.0, 1e-300j], [-1e-300j, 1.0]]), False),
    (np.ones((3, 3)), False),
], ids=["zero-diagonal", "negative-zero", "nan-diagonal", "nan-off", "tiny-off", "dense"])
def test_is_diagonal(op, diagonal):
    assert bases.is_diagonal(op) == diagonal


def test_is_diagonal_allocates_no_matrix():
    op = np.diag(np.arange(256.0)).astype(complex)
    tracemalloc.start()
    try:
        assert bases.is_diagonal(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024  # a 256 x 256 difference would take 1 MB


def test_apply_scalar_function_rejects_real_non_symmetric():
    op = _symmetric(np.random.default_rng(0), 8, imag=False)
    op[0, 1] += 1e-3
    with pytest.raises(HermiticityError):
        bases.apply_scalar_function(op, np.exp)


def _former_hermitian_verdict(op, tol=bases.HERMITICITY_TOL):
    """The check on the full complex difference that require_hermitian replaced: its oracle."""
    return np.max(np.abs(op - op.conj().T)) <= tol * max(1.0, np.max(np.abs(op)))


@pytest.mark.parametrize("kind", ["real", "complex-zero-imag", "complex"])
def test_require_hermitian_verdict_matches_former_check(kind):
    """Matrices whose deviation sits just inside or outside the tolerance get the same verdict."""
    rng = np.random.default_rng(["real", "complex-zero-imag", "complex"].index(kind))
    verdicts = []
    for dim in (2, 16, 256):
        for factor in (0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6, 2.0):
            a = rng.normal(size=(dim, dim)) * rng.uniform(0.1, 100.0)
            if kind == "complex":
                a = a + 1j * rng.normal(size=(dim, dim))
            op = (a + a.conj().T) / 2
            op = op.astype(complex) if kind == "complex-zero-imag" else op
            step = factor * bases.HERMITICITY_TOL * max(1.0, np.max(np.abs(op)))
            op[0, 1] += 1j * step if kind == "complex" else step
            expected = _former_hermitian_verdict(op)
            verdicts.append(expected)
            if expected:
                out = bases.require_hermitian(op)
                if kind == "complex-zero-imag":
                    # the real part, a view of op's memory
                    assert out.dtype == np.float64 and np.shares_memory(out, op)
                    assert np.array_equal(out, op.real)
                else:
                    assert out is op
            else:
                with pytest.raises(HermiticityError):
                    bases.require_hermitian(op)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("op, expected", [
    (np.array([[2, 1], [1, 3]]), np.float64),
    (np.array([[2, 1], [1, 3]], dtype=np.float32), np.float64),
    (np.array([[2, 1], [1, 3]], dtype=np.complex64), np.float64),
    (np.array([[0, -1j], [1j, 0]], dtype=np.complex64), np.complex128),
])
def test_require_hermitian_widens_to_double_precision(op, expected):
    """Narrower input is widened, so what callers diagonalise keeps double precision."""
    out = bases.require_hermitian(op)
    assert out.dtype == expected and np.array_equal(out, op)


@pytest.mark.parametrize("call", [
    vqe.exact_ground,
    pauli.decompose,
    lambda h: evolution.exact_evolve(h, 1.0, np.full(4, 0.5)),
    lambda h: vqe.run_vqe(h, circuits.AnsatzSpec(2, 1), vqe.OptimizerConfig(budget=5)),
], ids=["exact_ground", "decompose", "exact_evolve", "run_vqe"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entry_is_a_domain_error(call, kind, where, value):
    """A NaN or infinite entry is refused before any solver reads it, with no warning.

    A NaN deviation, or an infinite one against an infinite scale, is not above
    the tolerance, so the Hermiticity check alone would pass such a matrix.
    """
    h = np.eye(4)
    if kind == "complex":
        h = h + np.diag([1j, 0, 0], k=1) - np.diag([1j, 0, 0], k=-1)  # a Hermitian imaginary part
    h[where] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
            call(h)


@pytest.mark.parametrize("call", [
    vqe.exact_ground,
    lambda h: evolution.exact_evolve(h, 1.0, np.zeros(0)),
    lambda h: circuits.expectation_dense(h, np.zeros(0)),
], ids=["exact_ground", "exact_evolve", "expectation_dense"])
def test_empty_matrix_is_a_shape_error(call):
    with pytest.raises(ShapeError, match="non-empty square matrix"):
        call(np.zeros((0, 0)))


def _per_row_energy(h, psi):
    """The per-row formula that bases.energies replaced: its oracle."""
    return np.vdot(psi, h @ psi).real


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_energies_match_per_row_formula(n, kind):
    """One product per stack gives each row's <psi|H|psi> to rounding, real and complex H alike."""
    rng = np.random.default_rng([n, kind == "complex"])
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if kind == "complex" else 0)
    # a complex H with no imaginary part comes back as its real part, a float64 view
    h = bases.require_hermitian(((a + a.conj().T) / 2).astype(complex))
    assert h.dtype == (np.complex128 if kind == "complex" else np.float64)
    for m in (1, 7, 96):
        states = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        ref = np.array([_per_row_energy(h, psi) for psi in states])
        got = bases.energies(h, states)
        assert got.shape == (m,) and got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
