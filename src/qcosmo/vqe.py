"""Hybrid variational loop and the exact dense eigensolver oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import optimizers, pauli
from .bases import (energies, exchange, pairing_blocks, parity_blocks, real_form,
                    require_hermitian, xor_classes)
from .circuits import AnsatzSpec, apply_circuit, efficient_su2_ansatz
from .errors import DomainError, ShapeError
from .optimizers import OptimizerConfig, OptimizerKind


@dataclass
class VqeResult:
    energy: float
    params: np.ndarray
    trace: list[tuple[int, float]] = field(default_factory=list)
    converged: bool = False
    n_evals: int = 0
    eval_times: list[float] = field(default_factory=list)  # cumulative seconds, per point


_MINIMIZERS = {
    OptimizerKind.NELDER_MEAD: optimizers.nelder_mead,
    OptimizerKind.GRADIENT_DESCENT: optimizers.gradient_descent,
}


# The smallest dimension at which exact_ground splits H along a symmetry. On a 2-core Intel
# Xeon host (OpenBLAS 0.3.31 on one thread; medians of 101 calls, three processes) gathering
# and solving the two exchange blocks lost to one eigvalsh at 16 rows (0.012-0.018 -> 0.068-0.095
# ms) and at 64 (0.15-0.19 -> 0.19-0.26 ms), and won at 256: table4-256 2.6-3.6 -> 1.8-2.3 ms,
# table5 (complex) 6.6-9.5 -> 2.9-3.7 ms. The four parity blocks of table4-64, scan included,
# read 0.120-0.124 ms against 0.143-0.155 ms for one eigvalsh: one floor for every split keeps
# that small win out, and keeps the scans off every 64-row H without a symmetry (table2-6q).
SPLIT_MIN_DIM = 256


def exact_ground(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian H, in real arithmetic when H has no imaginary part.

    An H of at least ``SPLIT_MIN_DIM`` rows is solved as the blocks of :func:`_sector_blocks`,
    and the ground is the smallest block ground; any other H takes one full eigvalsh. A ground
    that is not finite, as eigvalsh returns for entries near the float maximum, raises
    ``DomainError``.
    """
    h = require_hermitian(h)
    blocks = _sector_blocks(h) if h.shape[0] >= SPLIT_MIN_DIM else [h]
    ground = min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)
    if not math.isfinite(ground):
        raise DomainError(f"the exact ground is not finite ({ground})")
    return ground


def _sector_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Blocks whose spectra together are H's, along the exact symmetries H has, in order.

    On 2^n rows a complex H first takes its real form (``bases.real_form``), if it has one,
    and then its conserved Z bits give 2^c blocks (``bases.parity_blocks``). With none, the
    mode exchange gives two (``bases.exchange``); with neither, H is one block.
    """
    blocks = None
    if not h.shape[0] & (h.shape[0] - 1):  # a Z bit is a bit of a qubit index
        if np.iscomplexobj(h):
            parts = np.ascontiguousarray(h).view(np.float64).reshape(*h.shape, 2)  # re, im
            classes = xor_classes(parts != 0)
            h = real_form(h, classes[:, 0], classes[:, 1])
            classes = classes.any(axis=1)
        else:
            classes = xor_classes(h != 0)
        blocks = parity_blocks(h, classes)
    if blocks is None:
        pairing = exchange(h)
        blocks = [h] if pairing is None else list(pairing_blocks(h, pairing))
    return blocks


def run_vqe(hamiltonian, ansatz: AnsatzSpec, opt: OptimizerConfig) -> VqeResult:
    """Minimize the circuit expectation value of ``hamiltonian``.

    ``hamiltonian`` may be a dense Hermitian matrix or a PauliSum, which is
    turned into its matrix once; H is checked once, before the loop. Initial
    parameters are drawn uniformly from [-pi, pi) with the seeded generator,
    so a fixed (seed, optimizer, budget) triple reproduces the run exactly.
    The returned trace holds the best-so-far energy at each evaluation. The
    optimizer hands the energy a stack of parameter vectors, whose circuits
    run as one sweep and whose energies come from one ``bases.energies``
    call; every point of a stack gets the stack's end time in ``eval_times``. A stack
    with an energy that is not finite raises ``DomainError``.
    """
    circuit = efficient_su2_ansatz(ansatz)
    if isinstance(hamiltonian, pauli.PauliSum):
        hamiltonian = pauli.reconstruct(hamiltonian)
    # contiguous: numpy would copy the real view of a complex H again on every product
    h = np.ascontiguousarray(require_hermitian(hamiltonian))
    if h.shape[0] != 2**ansatz.n_qubits:
        raise ShapeError("hamiltonian and ansatz dimensions differ")

    # budgets below n_params + 1 cannot converge but still yield a valid
    # partial result (converged=False)
    rng = np.random.default_rng(opt.seed)
    theta0 = rng.uniform(-np.pi, np.pi, circuit.n_params)

    start = time.perf_counter()
    eval_times: list[float] = []

    def energy(thetas):
        values = energies(h, apply_circuit(circuit, thetas))
        if not np.isfinite(values).all():
            raise DomainError("a circuit energy is not finite: <psi|H|psi> overflowed")
        values = values.tolist()
        eval_times.extend([time.perf_counter() - start] * len(values))
        return values

    # near the float maximum an energy, or the optimizer's step from finite energies, can
    # overflow: energy() refuses what is not finite, so no overflow warning is printed
    with np.errstate(all="ignore"):
        res = _MINIMIZERS[opt.kind](energy, theta0, budget=opt.budget, tol=opt.tol)
    best = np.minimum.accumulate(res.history).tolist()
    return VqeResult(
        energy=res.fun,
        params=res.x,
        trace=list(enumerate(best)),
        converged=res.converged,
        n_evals=res.n_evals,
        eval_times=eval_times[:res.n_evals],
    )
