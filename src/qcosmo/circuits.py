"""Exact statevector simulation of parameterized circuits.

Gate set: Ry/Rz rotations (slot-indexed parameters) and CNOT. Rotation
conventions are Ry(t) = exp(-i t Y / 2), Rz(t) = exp(-i t Z / 2). Qubit 0 is
the leftmost tensor factor, i.e. the most significant bit of the state index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .bases import require_hermitian


class Gate(NamedTuple):
    name: str          # "ry" | "rz" | "cnot"
    qubit: int
    target: int = -1   # cnot target
    slot: int = -1     # parameter slot for rotations


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    n_params: int = 0
    # (key, plan) from the last apply_circuit; see _plan_of
    _plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def ry(self, qubit: int) -> "Circuit":
        self.gates.append(Gate("ry", qubit, slot=self.n_params))
        self.n_params += 1
        return self

    def rz(self, qubit: int) -> "Circuit":
        self.gates.append(Gate("rz", qubit, slot=self.n_params))
        self.n_params += 1
        return self

    def cnot(self, control: int, target: int) -> "Circuit":
        self.gates.append(Gate("cnot", control, target=target))
        return self


ROTATIONS = ("ry", "rz")


@dataclass(frozen=True)
class AnsatzSpec:
    """Layout of the hardware-efficient ansatz."""

    n_qubits: int
    reps: int = 3
    rotations: tuple[str, ...] = ROTATIONS

    def __post_init__(self):
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


def efficient_su2_ansatz(spec: AnsatzSpec) -> Circuit:
    """(reps+1) rotation layers interleaved with reps full CNOT blocks.

    Each rotation layer applies every rotation kind to every qubit; each
    CNOT block applies CNOT(i, j) for all i < j in lexicographic
    order. Parameter count: ``spec.n_params``.
    """
    c = Circuit(spec.n_qubits)
    for layer in range(spec.reps + 1):
        for kind in spec.rotations:
            for q in range(spec.n_qubits):
                getattr(c, kind)(q)
        if layer < spec.reps:
            for i in range(spec.n_qubits):
                for j in range(i + 1, spec.n_qubits):
                    c.cnot(i, j)
    return c


def zero_state(n_qubits: int) -> np.ndarray:
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def _apply_cnot(psi: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    t = psi.reshape((2,) * n).copy()
    ctrl_one = np.take(t, 1, axis=control)
    # the control axis is gone after take(), so later axes shift down by one
    flipped = np.flip(ctrl_one, axis=target if target < control else target - 1)
    slicer = [slice(None)] * n
    slicer[control] = 1
    t[tuple(slicer)] = flipped
    return t.reshape(-1)


class _Plan(NamedTuple):
    """A gate list compiled for ``apply_circuit``.

    ``ry``/``rz`` hold the parameter slots of each rotation kind. ``chains``
    is an (F, L) array: row f lists, in gate order, the slots whose 2x2s fuse
    into the f-th single-qubit unitary, padded with slot -1, which
    ``apply_circuit`` sets to the identity. Row 0 is all padding, the chain
    of an untouched qubit. ``steps`` runs in order; a step is either
    ``(layer, None)``, a run of rotations with ``layer[q]`` the chain of
    qubit q, or ``(None, perm)``, a run of CNOTs as one gather ``psi[perm]``.
    """

    ry: np.ndarray
    rz: np.ndarray
    chains: np.ndarray
    steps: list


def _compile(circuit: Circuit) -> _Plan:
    n = circuit.n_qubits
    ry, rz, chains, steps = [], [], [[]], []
    for g in circuit.gates:
        if g.name == "cnot":
            if not steps or steps[-1][1] is None:
                steps.append((None, np.arange(2**n)))
            steps[-1] = (None, _apply_cnot(steps[-1][1], n, g.qubit, g.target))
        elif g.name in ROTATIONS:
            (ry if g.name == "ry" else rz).append(g.slot)
            if not steps or steps[-1][0] is None:
                steps.append((np.zeros(n, dtype=np.intp), None))
            layer = steps[-1][0]
            if not layer[g.qubit]:
                layer[g.qubit] = len(chains)
                chains.append([])
            chains[layer[g.qubit]].append(g.slot)
        else:
            raise ShapeError(f"unknown gate {g.name!r}")
    width = max(1, *map(len, chains))
    padded = [c + [-1] * (width - len(c)) for c in chains]
    return _Plan(np.array(ry, dtype=np.intp), np.array(rz, dtype=np.intp),
                 np.array(padded, dtype=np.intp), steps)


def _plan_of(circuit: Circuit) -> _Plan:
    """The circuit's compiled plan, rebuilt whenever its gate list changed."""
    key = (circuit.n_qubits, tuple(circuit.gates))
    if circuit._plan is None or circuit._plan[0] != key:
        circuit._plan = (key, _compile(circuit))
    return circuit._plan[1]


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


def apply_circuit(circuit: Circuit, params, init: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on ``init`` (default |0...0>) and return the state.

    ``params`` is one vector of ``n_params`` angles, giving a state of
    length ``2**n``, or a stack of shape ``(m, n_params)``, giving ``(m,
    2**n)`` with row i the state of ``params[i]``. A single vector runs as a
    stack of one, so every row equals its one-point call bit for bit.

    The gate list is compiled once into a plan cached on the circuit: each
    run of rotations becomes one fused 2x2 per qubit, and each run of CNOTs
    one index permutation. A rotation run acts on each row's state, seen as
    a ``(2**h, 2**(n-h))`` matrix with h = n // 2, as ``L @ psi @ R.T``:
    ``L`` is the Kronecker product of the first h qubits' 2x2s and ``R``
    that of the rest. A stack is swept ``STACK_CHUNK`` rows at a time.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != circuit.n_params:
        raise ShapeError(
            f"expected {circuit.n_params} parameters, got {params.shape}"
        )
    n = circuit.n_qubits
    psi0 = zero_state(n) if init is None else np.array(init, dtype=complex)
    if psi0.shape != (2**n,):
        raise ShapeError(f"initial state has wrong length {psi0.shape}")
    plan = _plan_of(circuit)
    h = n // 2
    stack = params if params.ndim == 2 else params[None]
    out = np.empty((len(stack), 2**n), dtype=complex)
    for lo in range(0, len(stack), STACK_CHUNK):
        # the row axis goes last, so each elementwise op runs along it
        half = np.ascontiguousarray(stack[lo:lo + STACK_CHUNK].T) / 2
        rows = half.shape[1]
        u = np.zeros((circuit.n_params + 1, 2, 2, rows), dtype=complex)  # one 2x2 per slot
        u[-1, 0, 0] = u[-1, 1, 1] = 1
        ry, rz = half[plan.ry], half[plan.rz]
        c, s = np.cos(ry), np.sin(ry)
        u[plan.ry, 0, 0] = u[plan.ry, 1, 1] = c
        u[plan.ry, 0, 1], u[plan.ry, 1, 0] = -s, s
        e = np.exp(-1j * rz)
        u[plan.rz, 0, 0], u[plan.rz, 1, 1] = e, e.conj()
        fused = u[plan.chains[:, 0]]
        for k in range(1, plan.chains.shape[1]):
            a = u[plan.chains[:, k]]
            fused = a[:, :, :1] * fused[:, None, 0] + a[:, :, 1:] * fused[:, None, 1]
        psi = out[lo:lo + rows]
        psi[:] = psi0
        for layer, perm in plan.steps:
            if perm is None:
                left, right = _kron(fused[layer[:h]]), _kron(fused[layer[h:]])
                psi = left @ psi.reshape(rows, 2**h, -1) @ right.transpose(0, 2, 1)
                psi = psi.reshape(rows, -1)
            else:
                psi = psi.take(perm, axis=1)
        out[lo:lo + rows] = psi
    return out if params.ndim == 2 else out[0]


def expectation_dense(h: np.ndarray, psi: np.ndarray) -> float:
    """Rayleigh quotient <psi|H|psi> for a dense Hermitian H."""
    h = require_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ShapeError("state/operator dimension mismatch")
    return float(np.vdot(psi, h @ psi).real)
