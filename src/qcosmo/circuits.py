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

    def dump(self) -> str:
        """Debug listing, one gate per line: ``RY q0 p3`` / ``CNOT q0 q1``."""
        lines = []
        for g in self.gates:
            if g.name in ("ry", "rz"):
                lines.append(f"{g.name.upper()} q{g.qubit} p{g.slot}")
            else:
                lines.append(f"CNOT q{g.qubit} q{g.target}")
        return "\n".join(lines)


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


def efficient_su2_ansatz(spec: AnsatzSpec) -> Circuit:
    """(reps+1) rotation layers interleaved with reps full CNOT blocks.

    Each rotation layer applies every rotation kind to every qubit; each
    CNOT block applies CNOT(i, j) for all i < j in lexicographic
    order. Parameter count: n_qubits * len(rotations) * (reps + 1).
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
    ``apply_circuit`` sets to the identity. ``steps`` runs in order; a step
    is either ``(shape, f, None)``, fused unitary f on the
    ``(2**q, 2, 2**(n-q-1))`` view of the state, or ``(None, -1, perm)``, a
    run of CNOTs as one gather ``psi[perm]``.
    """

    ry: np.ndarray
    rz: np.ndarray
    chains: np.ndarray
    steps: list


def _compile(circuit: Circuit) -> _Plan:
    n = circuit.n_qubits
    ry, rz, chains, steps = [], [], [], []
    run: dict[int, list[int]] = {}  # qubit -> its slots in the current rotation run
    for g in circuit.gates:
        if g.name == "cnot":
            run = {}
            if not steps or steps[-1][2] is None:
                steps.append((None, -1, np.arange(2**n)))
            steps[-1] = (None, -1, _apply_cnot(steps[-1][2], n, g.qubit, g.target))
        elif g.name in ROTATIONS:
            (ry if g.name == "ry" else rz).append(g.slot)
            if g.qubit not in run:
                run[g.qubit] = []
                chains.append(run[g.qubit])
                steps.append(((2**g.qubit, 2, 2 ** (n - g.qubit - 1)), len(chains) - 1, None))
            run[g.qubit].append(g.slot)
        else:
            raise ShapeError(f"unknown gate {g.name!r}")
    width = max(map(len, chains), default=1)
    padded = [c + [-1] * (width - len(c)) for c in chains]
    return _Plan(np.array(ry, dtype=np.intp), np.array(rz, dtype=np.intp),
                 np.array(padded, dtype=np.intp).reshape(len(chains), width), steps)


def _plan_of(circuit: Circuit) -> _Plan:
    """The circuit's compiled plan, rebuilt whenever its gate list changed."""
    key = (circuit.n_qubits, tuple(circuit.gates))
    if circuit._plan is None or circuit._plan[0] != key:
        circuit._plan = (key, _compile(circuit))
    return circuit._plan[1]


def apply_circuit(circuit: Circuit, params, init: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on ``init`` (default |0...0>) and return the state.

    The gate list is compiled once into a plan cached on the circuit: each
    run of rotations becomes one fused 2x2 per touched qubit, and each run
    of CNOTs one index permutation.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ShapeError(
            f"expected {circuit.n_params} parameters, got {params.shape}"
        )
    n = circuit.n_qubits
    psi = zero_state(n) if init is None else np.array(init, dtype=complex)
    if psi.shape != (2**n,):
        raise ShapeError(f"initial state has wrong length {psi.shape}")
    plan = _plan_of(circuit)
    half = params / 2
    u = np.zeros((circuit.n_params + 1, 2, 2), dtype=complex)  # one 2x2 per slot
    u[-1] = np.eye(2)
    c, s = np.cos(half[plan.ry]), np.sin(half[plan.ry])
    u[plan.ry] = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    e = np.exp(-1j * half[plan.rz])
    u[plan.rz, 0, 0], u[plan.rz, 1, 1] = e, e.conj()
    fused = u[plan.chains[:, 0]]
    for k in range(1, plan.chains.shape[1]):
        fused = np.matmul(u[plan.chains[:, k]], fused)
    for shape, f, perm in plan.steps:
        if perm is None:
            psi = np.matmul(fused[f], psi.reshape(shape)).reshape(-1)
        else:
            psi = psi[perm]
    return psi


def expectation_dense(h: np.ndarray, psi: np.ndarray) -> float:
    """Rayleigh quotient <psi|H|psi> for a dense Hermitian H."""
    h = require_hermitian(np.asarray(h, dtype=complex))
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ShapeError("state/operator dimension mismatch")
    return float(np.vdot(psi, h @ psi).real)
