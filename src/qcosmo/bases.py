"""Truncated position/momentum operators in three discrete bases.

All operators are dense Hermitian matrices in Planck units, real (float64)
unless their physics is complex: only the oscillator P is imaginary. Three
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
a complex matrix with no imaginary part as its real part, which callers use. So
the oscillator P^2 is real (two imaginary factors), while the position-basis P^2
keeps the rounding-level imaginary part of its Fourier product and stays complex.

The last section splits an operator along the exact symmetries it has (an involutive
index permutation, conserved Z bits, a real form), for ``vqe.exact_ground`` and
``evolution``.
"""

from __future__ import annotations

import enum
import math

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
    """``op`` in double precision, real if its imaginary part is zero.

    Raises DomainError on a NaN or infinite entry, and HermiticityError if ``op`` is not Hermitian.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or not op.size:
        raise ShapeError(f"expected a non-empty square matrix, got shape {op.shape}")
    op = op.astype(np.result_type(op, np.float64), copy=False)  # at least double precision
    # a complex matrix with no imaginary part gives the same deviation and scale from its real part
    if np.iscomplexobj(op) and not op.imag.any():
        op = op.real
    # NaN or infinite exactly when an entry is, before a subtraction could hide it in the deviation
    scale = np.max(np.abs(op))
    if not math.isfinite(scale):  # np.max gives a float; math's test costs a tenth of numpy's
        raise DomainError("matrix has non-finite entries")
    dev = np.max(np.abs(op - op.conj().T))
    if dev > HERMITICITY_TOL * max(1.0, scale):
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")
    return op


def energies(h: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<psi|H|psi> of each row of an ``(m, dim)`` stack, H as ``require_hermitian`` returns it.

    One product: for a real H, over the rows' parts stacked, as <a|H|a> + <b|H|b> for a + ib.
    """
    if np.iscomplexobj(h):
        return np.vecdot(states, states @ h.T).real  # vecdot conjugates its first argument
    parts = np.concatenate([states.real, states.imag])
    e = np.vecdot(parts, parts @ h.T)
    return e[:len(states)] + e[len(states):]


def is_diagonal(op: np.ndarray) -> bool:
    """Whether every off-diagonal entry is zero (-0.0 too), by two counts that allocate nothing."""
    return np.count_nonzero(op) == np.count_nonzero(np.diagonal(op))


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
    return np.diag(np.sqrt(np.arange(1, n)), 1)


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
        return np.diag(np.sqrt(2.0 * np.pi / (4.0 * n)) * (2 * j - (n + 1)))
    if basis is BasisKind.FINITE_DIFFERENCE:
        return np.diag(np.sqrt(1.0 / (2.0 * n)) * (2 * j - (n + 1)))
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
        return (n / 2.0) * body
    p = build_momentum(basis, n)
    return require_hermitian(hermitize(p @ p))


def apply_scalar_function(op: np.ndarray, f) -> np.ndarray:
    """Spectral calculus: diagonalize op = U diag(w) U^dag, return U f(w) U^dag.

    Exact for diagonal input (the diagonal is mapped directly, no
    diagonalization round-trip).
    """
    op = require_hermitian(op)  # real eigh for a real operator
    if is_diagonal(op):
        return np.diag(f(np.real(np.diagonal(op))))
    w, u = np.linalg.eigh(op)
    return hermitize((u * f(w)) @ u.conj().T)


# ---------------------------------------------------------------------------
# exact symmetry sectors
#
# Every detector here is exact: an operator is split only along a symmetry it has bit for
# bit, never to a tolerance. A pairing (a, b, f) is an involutive index permutation P given
# by its 2-cycles (a[k], b[k]) and its fixed points f: a and b are index arrays or slices
# (slices index without a copy), f an index array.

def pairing_blocks(h: np.ndarray, pairing) -> tuple[np.ndarray, np.ndarray]:
    """The P-even and P-odd blocks of an H that commutes with the pairing P bit for bit.

    The even sector has the basis e_f for each fixed point and (e_a + e_b)/sqrt(2) for each
    2-cycle, the odd sector (e_a - e_b)/sqrt(2). The symmetry gives H[b, b'] = H[a, a'] and
    H[b, a'] = H[a, b'], so the even block is [[H_ff, sqrt(2) H_fa], [sqrt(2) H_af, H_aa + H_ab]]
    and the odd block H_aa - H_ab.
    """
    a, b, f = pairing
    rows = h[a]
    direct, crossed = rows[:, a], rows[:, b]
    k = f.size
    even = np.empty((k + direct.shape[0],) * 2, dtype=h.dtype)
    np.add(direct, crossed, out=even[k:, k:])
    if k:
        fixed = h[f]
        even[:k, :k] = fixed[:, f]
        even[:k, k:] = math.sqrt(2) * fixed[:, a]
        even[k:, :k] = math.sqrt(2) * rows[:, f]
    return even, direct - crossed


def pairing_split(psi: np.ndarray, pairing) -> tuple[np.ndarray, np.ndarray]:
    """A state's components in the even and odd bases of :func:`pairing_blocks`."""
    a, b, f = pairing
    top, partner = psi[a], psi[b]
    even = np.concatenate([psi[f], (top + partner) / np.sqrt(2.0)])
    return even, (top - partner) / np.sqrt(2.0)


def pairing_join(even: np.ndarray, odd: np.ndarray, pairing) -> np.ndarray:
    """The state whose :func:`pairing_split` is (even, odd)."""
    a, b, f = pairing
    pair = even[f.size:]
    psi = np.empty(f.size + 2 * pair.size, dtype=np.result_type(even, odd))
    psi[f] = even[:f.size]
    psi[a] = (pair + odd) / np.sqrt(2.0)
    psi[b] = (pair - odd) / np.sqrt(2.0)
    return psi


def reflection(parts):
    """The grid reversal i <-> dim - 1 - i as a pairing, if every part equals ``p[::-1, ::-1]``.

    At an odd dimension, or if any part misses the reversal by a bit, None.
    """
    dim = parts[0].shape[0]
    if dim % 2 or not all(np.array_equal(p, p[::-1, ::-1]) for p in parts):
        return None
    m = dim // 2
    return slice(0, m), slice(dim - 1, m - 1, -1), np.arange(0)


def exchange(h: np.ndarray):
    """The exchange |ij> <-> |ji> of two equal tensor factors as a pairing, if H commutes with it.

    The test is exact: ``h.reshape(d, d, d, d)`` must equal its (1, 0, 3, 2) transpose. The
    2-cycles pair |ij> with |ji> for i < j, and the fixed points are the |ii>.
    """
    d = math.isqrt(h.shape[0])
    if d * d != h.shape[0]:
        return None
    t = h.reshape(d, d, d, d)
    if not np.array_equal(t, t.transpose(1, 0, 3, 2)):
        return None
    i, j = np.triu_indices(d, 1)
    return i * d + j, j * d + i, np.arange(d) * (d + 1)


def xor_classes(nonzero: np.ndarray) -> np.ndarray:
    """Whether some entry (i, j) with i ^ j = k is True, for each k, of a 2^n x 2^n mask.

    A trailing axis (say real and imaginary parts) is carried through: a (2^n, 2^n, c) mask
    gives (2^n, c). One qubit per pass, from the most significant: the row bit and the column
    bit become the row bit and their XOR (the column bit reversed where the row bit is 1), and
    the row bit is OR-reduced away. Each pass reads half of what the last one did, and no
    index table is built.
    """
    dim, tail = nonzero.shape[0], nonzero.shape[2:]
    cls = nonzero.reshape(2, dim // 2, 1, 2, -1)
    while True:
        cls = cls[0] | cls[1, :, :, ::-1]  # (row bits left, XOR bits, column bit, rest)
        rows, done, _, rest = cls.shape
        if rows == 1:
            return cls.reshape(dim, *tail)
        cls = cls.reshape(2, rows // 2, 2 * done, 2, rest // 2)


def parity_blocks(h: np.ndarray, classes: np.ndarray):
    """H's blocks over its conserved Z bits, or None if it conserves none.

    Bit q is conserved when no class k = i ^ j of a nonzero H[i, j] (``classes``, from
    :func:`xor_classes`) has bit q set. With c conserved bits H is 2^c blocks, each gathered
    by the indices that share one value of those bits.
    """
    dim, moved = h.shape[0], 0
    for k in np.flatnonzero(classes).tolist():  # no ufunc reduce or sort: their code pages
        moved |= k                               # would add to the peak RSS of a run
    conserved = (dim - 1) & ~moved
    if not conserved:
        return None
    key = np.arange(dim) & conserved
    return [h[idx][:, idx] for idx in (np.flatnonzero(key == v) for v in range(dim)
                                       if not v & ~conserved)]


def real_form(h: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """U^dag H U in real arithmetic when a complex H allows it, else H itself.

    ``re`` and ``im`` are the :func:`xor_classes` of H's real and imaginary parts. If a bit
    set S has popcount(k & S) even for every class of the real part and odd for every class
    of the imaginary part, H commutes with the antiunitary Z_S K (K complex conjugation).
    Then U = diag(u), with u_i = 1 when popcount(i & S) is even and i when odd, makes H real:
    each entry of U^dag H U is exactly Re H, -Im H or +Im H of the same entry.
    """
    s = _real_form_bits(re, im)
    if s is None:
        return h
    p = (np.bitwise_count(np.arange(h.shape[0]) & s) & 1).astype(np.int8)
    # in the even-parity classes Im H is zero, in the odd ones Re H: no entry is rounded
    r = h.imag * np.subtract.outer(p, p)  # an int8 sign table: an eighth of a float one
    r += h.real
    return r


def _real_form_bits(re: np.ndarray, im: np.ndarray):
    """The bit set S of :func:`real_form` as an int, or None if none exists.

    Gaussian elimination over GF(2) on one equation per occupied class k: the bits of k,
    with its required parity in bit n. A free bit is left out of S.
    """
    n = re.size.bit_length() - 1
    rows = np.concatenate([np.flatnonzero(re), np.flatnonzero(im) | 1 << n])
    pivots = []
    for q in range(n):
        has = (rows >> q & 1).astype(bool)
        if has.any():
            pivot = int(rows[has.argmax()])
            rows = np.where(has, rows ^ pivot, rows)
            pivots.append((q, pivot))
    if (rows >> n).any():  # some combination of classes asks for parity 0 and 1 at once
        return None
    s = 0
    for q, pivot in reversed(pivots):  # a pivot has no bit below q set
        s |= ((pivot >> n) ^ (pivot & s).bit_count()) % 2 << q
    return s
