"""Pauli-sum decomposition of Hermitian operators on n qubits.

A Hermitian 2^n x 2^n matrix expands uniquely as sum_P c_P * P over the 4^n
tensor products of {I, X, Y, Z}, with c_P = Tr(P H) / 2^n real. Labels are
strings over "IXYZ" with qubit 0 the leftmost character (most significant
bit of the state index).

The transform is computed one qubit at a time, each as a real 4 x 4 GEMM on
the flat coefficient vector, so no 2^n x 2^n Pauli string is ever
materialized. A complex vector goes through as its real and imaginary halves.
The Y letters' phase, (+-i) per Y, is read off each kept term's index.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bases import MAX_QUBITS, energies, require_hermitian
from .errors import DomainError, HermiticityError, ShapeError

ZERO_TOL = 1e-12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_LABELS = "IXYZ"
_LABEL_CODES = np.array([ord(c) for c in _LABELS], dtype=np.uint32)  # sorted
_DIGITS = str.maketrans(_LABELS, "0123")

# K[s, 2j+k] = P_s[k, j] for I, X and Z, and -i * Y[k, j] for Y: one qubit's
# Pauli change of basis with Y's phase taken out, so every entry is 0 or +-1.
# K is symmetric, so it serves both directions: decompose (c_s = Tr(P_s H))
# puts back +i per Y letter and reconstruct (sum_s c_s P_s) -i per Y letter,
# each once per term, from _phase of the term's index.
_KERNEL = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, -1],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True, eq=False)
class PauliSum:
    """Weighted Pauli strings representing a Hermitian operator.

    Term k is ``coeff[k]`` times the string whose flat coefficient index is
    ``index[k]``: base-4 digit q of the index, most significant first, is
    qubit q's letter in "IXYZ". Both arrays are read-only copies, checked
    once here; build from labels with ``from_labels`` or ``from_text``.
    """

    n_qubits: int
    index: np.ndarray
    coeff: np.ndarray

    def __post_init__(self):
        index = np.array(self.index, dtype=np.intp)
        coeff = np.asarray(self.coeff)
        if coeff.dtype.kind not in "iuf":
            raise ShapeError(f"Pauli coefficients must be real numbers, not {coeff.dtype}")
        coeff = coeff.astype(np.float64)
        n = self.n_qubits
        # MAX_QUBITS bounds the dense matrix that reconstruct and expectation build
        if not 1 <= n <= MAX_QUBITS or index.ndim != 1 or coeff.shape != index.shape:
            raise ShapeError(f"{index.shape} indices and {coeff.shape} coefficients for {n} "
                             f"qubits (1 to {MAX_QUBITS})")
        # a stable sort is one linear pass over decompose's already sorted indices
        repeated = np.any(np.diff(np.sort(index, kind="stable")) == 0)
        if np.any((index < 0) | (index >= 4**n)) or repeated:
            raise ShapeError(f"Pauli indices must be unique and in [0, 4**{n})")
        for name, a in (("index", index), ("coeff", coeff)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.index.size

    def labels(self) -> list[str]:
        """Each term's label, built on demand."""
        return _labels(self.index, self.n_qubits)

    def to_text(self) -> str:
        """One term per line, ``coeff LABEL``, 17 significant digits."""
        terms = zip(self.coeff.tolist(), self.labels())
        return "\n".join(f"{c:.17g} {label}" for c, label in terms)

    @classmethod
    def from_labels(cls, n_qubits: int, labels, coeffs) -> "PauliSum":
        """The checked constructor from labels; names the first bad label in input order."""
        index, seen = [], set()
        for label in labels:
            if not isinstance(label, str) or len(label) != n_qubits or label.strip(_LABELS):
                raise ShapeError(f"bad label {label!r} for {n_qubits} qubits")
            if label in seen:
                raise ShapeError(f"duplicate label {label!r}")
            seen.add(label)
            # the leading 0 lets n_qubits = 0 reach the constructor's check
            index.append(int("0" + label.translate(_DIGITS), 4))
        return cls(n_qubits, index, coeffs)

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        """Parse ``to_text`` output: one ``coeff LABEL`` per non-blank line."""
        labels, coeffs = [], []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                coeff, label = line.split()
                coeffs.append(float(coeff))
            except ValueError:
                message = f"line {number}: expected 'coeff LABEL', got {line.strip()!r}"
                raise ShapeError(message) from None
            labels.append(label)
        if not labels:
            raise ShapeError("empty Pauli-sum text")
        return cls.from_labels(len(labels[0]), labels, coeffs)


def _n_qubits_of(dim: int) -> int:
    if dim < 2 or dim & (dim - 1):
        raise ShapeError(f"dimension {dim} is not a power of 2 >= 2")
    if dim > 2**MAX_QUBITS:
        raise ShapeError(f"dimension {dim} is over the limit of {2**MAX_QUBITS} ({MAX_QUBITS} qubits)")
    return dim.bit_length() - 1


def _pauli_transform(parts: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Apply ``_KERNEL`` along each base-4 digit of a flat length-4**n vector.

    ``parts`` yields a real vector as one contiguous float64 array, or a
    complex vector as its real and imaginary halves, each contiguous; the
    result is real or complex to match. From a generator, the imaginary half
    is made only after the real half's passes, so one input half is held at
    a time.

    Each pass is one GEMM, ``(K @ x.reshape(4, -1)).T`` written as
    ``x.reshape(4, -1).T @ K`` (K is symmetric) so BLAS reads the transpose in
    place: it contracts the leading digit and rotates it to the end, and
    after n passes the digits are back in order. Each output adds two values
    and rounds once, so the qubit order fixes the rounding; the tests hold
    qubit 0 first to the per-axis ``tensordot`` oracle bit for bit. The two
    halves of a complex vector round as the complex transform would.
    """
    out = []
    for x in parts:
        for _ in range(n):
            x = (x.reshape(4, -1).T @ _KERNEL).reshape(-1)
        out.append(x)
    if len(out) == 1:
        return out[0]
    z = np.empty(4**n, dtype=complex)
    z.real, z.imag = out
    return z


def _phase(indices: np.ndarray, n: int, y: complex) -> np.ndarray:
    """y**(number of Y letters) of each flat Pauli index.

    A Y digit is binary 10, so ``(i >> 1) & ~i``, masked to each digit's low
    bit (``(4**n - 1) // 3`` is 0b0101...01), keeps one bit per Y. The powers
    y**k are the repeated product y * (y * ... 1), so each phase is exact,
    signed zeros included.
    """
    powers = np.cumprod(np.array([1] + [y] * n, dtype=complex))
    return powers[np.bitwise_count((indices >> 1) & ~indices & (4**n - 1) // 3)]


def _labels(indices: np.ndarray, n: int) -> list[str]:
    """The n-letter label of each flat coefficient index.

    Qubit q's letter is base-4 digit q of the index, most significant first.
    """
    codes = np.empty((indices.size, n), dtype=np.uint32)
    for q in range(n):
        codes[:, q] = _LABEL_CODES[(indices >> 2 * (n - 1 - q)) & 3]
    return codes.view(f"U{n}").reshape(-1).tolist()


def decompose(h: np.ndarray) -> PauliSum:
    """Expand a Hermitian matrix in the Pauli basis, dropping |c| <= ``ZERO_TOL`` (absolute).

    A coefficient that overflows the float range raises ``DomainError``.
    """
    h = np.asarray(h)
    n = _n_qubits_of(h.shape[0])
    h = require_hermitian(h)  # real when it has no imaginary part: then the transform is real
    # interleave (row_q, col_q) pairs so each qubit's pair is one base-4 digit, gathering
    # a complex H's real and imaginary parts straight into the two contiguous halves
    order = [ax for q in range(n) for ax in (q, n + q)]
    parts = (h.real, h.imag) if np.iscomplexobj(h) else (h,)
    with np.errstate(all="ignore"):  # an overflow is refused below, not printed
        x = _pauli_transform((np.ascontiguousarray(p.reshape((2,) * (2 * n)).transpose(order))
                              .reshape(-1) for p in parts), n) / h.shape[0]
        finite = np.isfinite(x.view(np.float64)).all()  # as floats: half the time of complex
        # |phase| = 1: the kept set is the same before the phase; a dropped term's
        # imaginary part (<= ZERO_TOL) could not fail the check below
        kept = np.flatnonzero(np.abs(x) > ZERO_TOL)
    if not finite:  # a NaN coefficient fails the threshold and would drop out silently
        raise DomainError("a Pauli coefficient is not finite: the transform overflowed")
    coeffs = _phase(kept, n, 1j) * x[kept]
    max_imag = np.max(np.abs(coeffs.imag), initial=0.0)
    if max_imag > 1e-10 * max(1.0, np.max(np.abs(coeffs), initial=0.0)):
        raise HermiticityError(f"complex Pauli coefficient ({max_imag:.3e}) from Hermitian input")
    return PauliSum(n, kept, coeffs.real)


def reconstruct(s: PauliSum) -> np.ndarray:
    """Dense matrix sum_t coeff_t * (tensor product of Pauli factors)."""
    n = s.n_qubits
    phase = _phase(s.index, n, -1j)
    # real arithmetic unless some term has an odd number of Y letters
    terms = phase * s.coeff if phase.imag.any() else phase.real * s.coeff
    coeffs = np.zeros(4**n, dtype=terms.dtype)
    coeffs[s.index] = terms
    # split each base-4 digit back into (row, col) bits and deinterleave
    parts = (p.copy() for p in (coeffs.real, coeffs.imag)) if np.iscomplexobj(coeffs) else (coeffs,)
    t = _pauli_transform(parts, n).reshape((2,) * (2 * n))
    rows = [2 * q for q in range(n)]
    cols = [2 * q + 1 for q in range(n)]
    return np.ascontiguousarray(t.transpose(rows + cols), dtype=complex).reshape(2**n, 2**n)


def expectation(s: PauliSum, psi: np.ndarray) -> float:
    """<psi| sum_t c_t P_t |psi>: ``bases.energies`` on the reconstructed matrix."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2**s.n_qubits,):
        raise ShapeError(f"state length {psi.shape} does not match {s.n_qubits} qubits")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ShapeError(f"state norm {norm} is not 1")
    return float(energies(reconstruct(s), psi[None])[0])
