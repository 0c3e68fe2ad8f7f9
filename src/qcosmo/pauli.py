"""Pauli-sum decomposition of Hermitian operators on n qubits.

A Hermitian 2^n x 2^n matrix expands uniquely as sum_P c_P * P over the 4^n
tensor products of {I, X, Y, Z}, with c_P = Tr(P H) / 2^n real. Labels are
strings over "IXYZ" with qubit 0 the leftmost character (most significant
bit of the state index).

The transform is computed one qubit at a time on the reshaped coefficient
tensor, so no 2^n x 2^n Pauli string is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HermiticityError, ShapeError
from .bases import require_hermitian

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_LABELS = "IXYZ"
_LABEL_CODES = np.array([ord(c) for c in _LABELS], dtype=np.uint32)  # sorted
_CHARS = frozenset(_LABELS)

# W[s, 2j+k] = P_s[k, j]: contracts one (row, col) qubit index pair into a
# Pauli-coefficient axis (trace convention Tr(P H)).
_W = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)
# V[2j+k, s] = P_s[j, k]: inverse direction, Pauli axis back to matrix indices.
_V = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1j, 0],
        [0, 1, 1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class PauliTerm:
    coeff: float
    label: str


@dataclass
class PauliSum:
    """Weighted Pauli labels representing a Hermitian operator."""

    n_qubits: int
    terms: list[PauliTerm] = field(default_factory=list)
    zero_tol: float = 1e-12

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if len(t.label) != self.n_qubits or not _CHARS.issuperset(t.label):
                raise ShapeError(f"bad label {t.label!r} for {self.n_qubits} qubits")
            if t.label in seen:
                raise ShapeError(f"duplicate label {t.label!r}")
            seen.add(t.label)

    def __len__(self):
        return len(self.terms)

    def to_text(self) -> str:
        """One term per line, ``coeff LABEL``, 17 significant digits."""
        return "\n".join(f"{t.coeff:.17g} {t.label}" for t in self.terms)

    @classmethod
    def from_text(cls, text: str, zero_tol: float = 1e-12) -> "PauliSum":
        terms = []
        n_qubits = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            coeff, label = line.split()
            if n_qubits is None:
                n_qubits = len(label)
            terms.append(PauliTerm(float(coeff), label))
        if n_qubits is None:
            raise ShapeError("empty Pauli-sum text")
        return cls(n_qubits=n_qubits, terms=terms, zero_tol=zero_tol)


def _n_qubits_of(dim: int) -> int:
    n = int(round(np.log2(dim)))
    if n < 1 or 2**n != dim:
        raise ShapeError(f"dimension {dim} is not a power of 2 >= 2")
    return n


def _pauli_transform(t: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Apply the per-qubit 4x4 kernel along every axis of a (4,) * n tensor."""
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [ax])), 0, ax)
    return t


def _labels(indices: np.ndarray, n: int) -> list[str]:
    """The n-letter label of each flat coefficient index.

    Qubit q's letter is base-4 digit q of the index, most significant first.
    """
    codes = np.empty((indices.size, n), dtype=np.uint32)
    for q in range(n):
        codes[:, q] = _LABEL_CODES[(indices >> 2 * (n - 1 - q)) & 3]
    return codes.view(f"U{n}").reshape(-1).tolist()


def _indices(labels: list[str], n: int) -> np.ndarray:
    """The flat coefficient index of each n-letter label; inverse of ``_labels``."""
    codes = np.array(labels, dtype=f"U{n}").view(np.uint32)
    flat = np.zeros(len(labels), dtype=np.intp)
    for q in range(n):
        flat = 4 * flat + np.searchsorted(_LABEL_CODES, codes[q::n])
    return flat


def decompose(h: np.ndarray, zero_tol: float = 1e-12) -> PauliSum:
    """Expand a Hermitian matrix in the Pauli basis, dropping tiny terms."""
    h = np.asarray(h, dtype=complex)
    n = _n_qubits_of(h.shape[0])
    require_hermitian(h)
    # interleave (row_q, col_q) pairs then merge each pair into one axis
    order = [ax for q in range(n) for ax in (q, n + q)]
    t = h.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    coeffs = _pauli_transform(t, _W).reshape(-1) / h.shape[0]
    max_imag = np.max(np.abs(coeffs.imag)) if coeffs.size else 0.0
    if max_imag > 1e-10 * max(1.0, np.max(np.abs(coeffs))):
        raise HermiticityError(f"complex Pauli coefficient ({max_imag:.3e}) from Hermitian input")
    kept = np.flatnonzero(np.abs(coeffs) > zero_tol)
    terms = [PauliTerm(c, label) for c, label in zip(coeffs.real[kept].tolist(), _labels(kept, n))]
    return PauliSum(n_qubits=n, terms=terms, zero_tol=zero_tol)


def reconstruct(s: PauliSum) -> np.ndarray:
    """Dense matrix sum_t coeff_t * (tensor product of Pauli factors)."""
    n = s.n_qubits
    coeffs = np.zeros(4**n, dtype=complex)
    coeffs[_indices([t.label for t in s.terms], n)] = [t.coeff for t in s.terms]
    t = _pauli_transform(coeffs.reshape((4,) * n), _V)
    # split each merged (row, col) axis back out and deinterleave
    t = t.reshape((2,) * (2 * n))
    rows = [2 * q for q in range(n)]
    cols = [2 * q + 1 for q in range(n)]
    return t.transpose(rows + cols).reshape(2**n, 2**n)


def _term_masks(label: str) -> tuple[int, int, int, complex]:
    """Bit masks (flip, y, z) and the global i^(#Y) phase for one label."""
    n = len(label)
    flip = y_mask = z_mask = 0
    ny = 0
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
    return flip, y_mask, z_mask, 1j**ny


def expectation(s: PauliSum, psi: np.ndarray) -> float:
    """<psi| sum_t c_t P_t |psi>, evaluated term by term with bit masks.

    Amplitude convention per qubit: X|b> = |1-b>, Y|b> = i(-1)^b |1-b>,
    Z|b> = (-1)^b |b>, so P|j> = phase(j) |j ^ flip>.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2**s.n_qubits,):
        raise ShapeError(f"state length {psi.shape} does not match {s.n_qubits} qubits")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ShapeError(f"state norm {norm} is not 1")
    j = np.arange(psi.size)
    total = 0.0 + 0.0j
    for t in s.terms:
        flip, y_mask, z_mask, phase0 = _term_masks(t.label)
        signs = (-1.0) ** np.bitwise_count(j & (y_mask | z_mask))
        amp = phase0 * signs
        total += t.coeff * np.vdot(psi[j ^ flip], amp * psi)
    return float(total.real)
