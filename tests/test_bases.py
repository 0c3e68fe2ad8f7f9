import numpy as np
import pytest

from qcosmo import bases
from qcosmo.bases import BasisKind
from qcosmo.errors import (
    HermiticityError,
    InvalidTruncationError,
    UnsupportedBasisError,
)

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
