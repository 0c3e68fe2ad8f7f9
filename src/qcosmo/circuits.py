"""Exact statevector simulation of the hardware-efficient ansatz.

Gate set: Ry/Rz rotations (slot-indexed parameters) and CNOT. Rotation
conventions are Ry(t) = exp(-i t Y / 2), Rz(t) = exp(-i t Z / 2). Qubit 0 is
the leftmost tensor factor, i.e. the most significant bit of the state index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .bases import MAX_QUBITS, energies, require_hermitian


ROTATIONS = ("ry", "rz")


@dataclass(frozen=True)
class AnsatzSpec:
    """Layout of the hardware-efficient ansatz."""

    n_qubits: int
    reps: int = 3
    rotations: tuple[str, ...] = ROTATIONS

    def __post_init__(self):
        # the CNOT block's permutation holds 2**n_qubits entries
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ShapeError(f"n_qubits must be 1 to {MAX_QUBITS}, not {self.n_qubits}")
        if self.reps < 1:
            raise ShapeError("reps must be >= 1")
        if not self.rotations:
            raise ShapeError("rotations must not be empty")
        for r in self.rotations:
            if r not in ROTATIONS:
                raise ShapeError(f"unknown rotation {r!r}")

    @property
    def n_params(self) -> int:
        """Parameter count of the ansatz that ``efficient_su2_ansatz`` builds."""
        return self.n_qubits * len(self.rotations) * (self.reps + 1)


class Ansatz(NamedTuple):
    """The hardware-efficient ansatz as ``apply_circuit`` runs it.

    The circuit is ``runs`` rotation runs with one CNOT block, the gather
    ``psi[perm]``, between each two. In a run every qubit fuses one chain of
    2x2s, whose links rotate by ``kinds`` in order; link k of qubit q in run
    r takes parameter ``(r * len(kinds) + k) * n_qubits + q``.
    """

    n_qubits: int
    n_params: int
    kinds: tuple[str, ...]
    runs: int
    perm: np.ndarray


def efficient_su2_ansatz(spec: AnsatzSpec) -> Ansatz:
    """(reps+1) rotation layers interleaved with reps full CNOT blocks.

    Each rotation layer applies every rotation kind to every qubit; each
    CNOT block applies CNOT(i, j) for all i < j in lexicographic
    order. Parameter count: ``spec.n_params``.
    """
    n = spec.n_qubits
    k = np.arange(2**n)
    perm = k
    for i, j in itertools.combinations(range(n), 2):
        # CNOT(i, j) as a gather: state index k reads k with bit j flipped if bit i is set
        perm = perm[k ^ (((k >> (n - 1 - i)) & 1) << (n - 1 - j))]
    perm.flags.writeable = False
    # one qubit has no CNOT between its layers, so they fuse into one run
    if n > 1:
        return Ansatz(n, spec.n_params, spec.rotations, spec.reps + 1, perm)
    return Ansatz(n, spec.n_params, spec.rotations * (spec.reps + 1), 1, perm)


def zero_state(n_qubits: int) -> np.ndarray:
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def _kron(us: np.ndarray) -> np.ndarray:
    """``us[0] ⊗ us[1] ⊗ ...`` of a (k, 2, 2, rows) stack, as (rows, 2**k, 2**k)."""
    k = np.ones((1, 1, us.shape[-1]), dtype=complex)
    for u in us:
        d = 2 * len(k)
        k = (k[:, None, :, None] * u[None, :, None, :]).reshape(d, d, -1)
    return np.ascontiguousarray(k.transpose(2, 0, 1))


STACK_CHUNK = 64
"""Rows of a parameter stack that ``apply_circuit`` runs at once.

Each row in flight holds one 2x2 per parameter slot, so this bounds the
sweep's working memory by O(n_params) whatever the stack's height.
"""


def apply_circuit(ansatz: Ansatz, params, init: np.ndarray | None = None) -> np.ndarray:
    """Run the ansatz on ``init`` (default |0...0>) and return the state.

    ``params`` is one vector of ``n_params`` angles, giving a state of
    length ``2**n``, or a stack of shape ``(m, n_params)``, giving ``(m,
    2**n)`` with row i the state of ``params[i]``. A single vector runs as a
    stack of one, so every row equals its one-point call bit for bit.

    Each rotation run becomes one fused 2x2 per qubit, and each CNOT block
    one index permutation. A rotation run acts on each row's state, seen as
    a ``(2**h, 2**(n-h))`` matrix with h = n // 2, as ``L @ psi @ R.T``:
    ``L`` is the Kronecker product of the first h qubits' 2x2s and ``R``
    that of the rest. A stack is swept ``STACK_CHUNK`` rows at a time.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != ansatz.n_params:
        raise ShapeError(f"expected {ansatz.n_params} parameters, got {params.shape}")
    n = ansatz.n_qubits
    psi0 = zero_state(n) if init is None else np.array(init, dtype=complex)
    if psi0.shape != (2**n,):
        raise ShapeError(f"initial state has wrong length {psi0.shape}")
    slots = np.arange(ansatz.n_params).reshape(ansatz.runs, len(ansatz.kinds), n)
    ry = slots[:, [kind == "ry" for kind in ansatz.kinds]]
    rz = slots[:, [kind == "rz" for kind in ansatz.kinds]]
    h = n // 2
    stack = params if params.ndim == 2 else params[None]
    out = np.empty((len(stack), 2**n), dtype=complex)
    for lo in range(0, len(stack), STACK_CHUNK):
        # the row axis goes last, so each elementwise op runs along it
        half = np.ascontiguousarray(stack[lo:lo + STACK_CHUNK].T) / 2
        rows = half.shape[1]
        u = np.zeros((ansatz.n_params, 2, 2, rows), dtype=complex)  # one 2x2 per slot
        c, s = np.cos(half[ry]), np.sin(half[ry])
        u[ry, 0, 0] = u[ry, 1, 1] = c
        u[ry, 0, 1], u[ry, 1, 0] = -s, s
        e = np.exp(-1j * half[rz])
        u[rz, 0, 0], u[rz, 1, 1] = e, e.conj()
        links = u.reshape(*slots.shape, 2, 2, rows)
        fused = links[:, 0]  # fused[r, q]: qubit q's 2x2 in run r
        for k in range(1, len(ansatz.kinds)):
            a = links[:, k]
            fused = (a[..., :1, :] * fused[..., None, 0, :, :]
                     + a[..., 1:, :] * fused[..., None, 1, :, :])
        psi = out[lo:lo + rows]
        psi[:] = psi0
        for r, run in enumerate(fused):
            if r:
                psi = psi.take(ansatz.perm, axis=1)
            left, right = _kron(run[:h]), _kron(run[h:])
            psi = left @ psi.reshape(rows, 2**h, -1) @ right.transpose(0, 2, 1)
            psi = psi.reshape(rows, -1)
        out[lo:lo + rows] = psi
    return out if params.ndim == 2 else out[0]


def expectation_dense(h: np.ndarray, psi: np.ndarray) -> float:
    """<psi|H|psi> for a dense Hermitian H: ``bases.energies`` on a stack of one, checked."""
    h = require_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ShapeError("state/operator dimension mismatch")
    return float(energies(h, psi[None])[0])
