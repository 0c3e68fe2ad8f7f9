"""Truncated position/momentum operators in three discrete bases.

All operators are dense complex Hermitian matrices in Planck units. Three
constructions are supported:

* oscillator: ladder-matrix truncation, X and P both sparse tridiagonal;
* position: diagonal X on a uniform grid, P obtained by conjugating X with
  a centered discrete Fourier (Sylvester) matrix;
* finite difference: diagonal X, with only P^2 available (the standard
  three-point stencil).

Scalar potentials are applied with ``apply_scalar_function`` (spectral
calculus). The two-mode models in :mod:`qcosmo.models` take Kronecker
products of these single-mode operators.

``require_hermitian`` checks an operator and decides real arithmetic: it returns
a complex matrix with no imaginary part as its real part, which callers use.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    DomainError,
    HermiticityError,
    InvalidTruncationError,
    ShapeError,
    UnsupportedBasisError,
)

HERMITICITY_TOL = 1e-12
MAX_QUBITS = 8
"""Most qubits of a dense operator, and of a config in total: a 256 x 256 matrix."""


class BasisKind(enum.Enum):
    OSCILLATOR = "oscillator"
    POSITION = "position"
    FINITE_DIFFERENCE = "fd"


def require_hermitian(op: np.ndarray) -> np.ndarray:
    """``op`` in double precision, real if its imaginary part is zero; raises if not Hermitian."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {op.shape}")
    op = op.astype(np.result_type(op, np.float64), copy=False)  # at least double precision
    # a complex matrix with no imaginary part gives the same deviation and scale from its real part
    if np.iscomplexobj(op) and not op.imag.any():
        op = op.real
    dev = np.max(np.abs(op - op.conj().T))
    scale = max(1.0, np.max(np.abs(op)))
    if dev > HERMITICITY_TOL * scale:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")
    return op


def require_finite(op: np.ndarray) -> np.ndarray:
    """Return ``op`` unchanged, raising if any entry is NaN or infinite."""
    if not np.isfinite(op).all():
        raise DomainError("matrix has non-finite entries")
    return op


def hermitize(op: np.ndarray) -> np.ndarray:
    """Symmetrize away floating-point asymmetry: (A + A^dag)/2."""
    return (op + op.conj().T) / 2.0


def _check_truncation(n: int) -> None:
    if int(n) != n or n < 2:
        raise InvalidTruncationError(f"truncation dimension must be >= 2, got {n}")


def ladder(n: int) -> np.ndarray:
    """Truncated annihilation operator: sqrt(k) on the superdiagonal."""
    _check_truncation(n)
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def build_position(basis: BasisKind, n: int) -> np.ndarray:
    """Position operator in the chosen basis at truncation dimension ``n``.

    Oscillator: (a + a^dag)/sqrt(2).
    Position:   diagonal grid sqrt(2*pi/4n) * (2j - (n+1)), j = 1..n.
    Finite difference: diagonal grid sqrt(1/2n) * (2j - (n+1)).
    """
    _check_truncation(n)
    if basis is BasisKind.OSCILLATOR:
        a = ladder(n)
        return (a + a.conj().T) / np.sqrt(2.0)
    j = np.arange(1, n + 1)
    if basis is BasisKind.POSITION:
        return np.diag(np.sqrt(2.0 * np.pi / (4.0 * n)) * (2 * j - (n + 1))).astype(complex)
    if basis is BasisKind.FINITE_DIFFERENCE:
        return np.diag(np.sqrt(1.0 / (2.0 * n)) * (2 * j - (n + 1))).astype(complex)
    raise UnsupportedBasisError(f"unknown basis {basis!r}")


def fourier_matrix(n: int) -> np.ndarray:
    """Centered Sylvester/Fourier matrix used to rotate X into P."""
    _check_truncation(n)
    j = np.arange(1, n + 1)
    c = 2 * j - (n + 1)
    return np.exp(2j * np.pi / (4.0 * n) * np.outer(c, c)) / np.sqrt(n)


def build_momentum(basis: BasisKind, n: int) -> np.ndarray:
    """Momentum operator; not available in the finite-difference basis."""
    _check_truncation(n)
    if basis is BasisKind.OSCILLATOR:
        a = ladder(n)
        return 1j * (a.conj().T - a) / np.sqrt(2.0)
    if basis is BasisKind.POSITION:
        f = fourier_matrix(n)
        return hermitize(f.conj().T @ build_position(BasisKind.POSITION, n) @ f)
    raise UnsupportedBasisError(
        "the finite-difference basis defines only P^2; use build_momentum_squared"
    )


def build_momentum_squared(basis: BasisKind, n: int) -> np.ndarray:
    """P^2 in the chosen basis; the only momentum-type operator for FD."""
    _check_truncation(n)
    if basis is BasisKind.FINITE_DIFFERENCE:
        body = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        return (n / 2.0) * body.astype(complex)
    p = build_momentum(basis, n)
    return hermitize(p @ p)


def apply_scalar_function(op: np.ndarray, f) -> np.ndarray:
    """Spectral calculus: diagonalize op = U diag(w) U^dag, return U f(w) U^dag.

    Exact for diagonal input (the diagonal is mapped directly, no
    diagonalization round-trip).
    """
    op = np.asarray(op, dtype=complex)
    # kept complex: a real eigh rounds differently and would change the models' bits
    require_hermitian(op)
    if np.count_nonzero(op - np.diag(np.diagonal(op))) == 0:
        vals = np.asarray(f(np.real(np.diagonal(op))), dtype=complex)
        return np.diag(vals)
    w, u = np.linalg.eigh(op)
    return hermitize((u * f(w)) @ u.conj().T)
