"""Hybrid variational loop and the exact dense eigensolver oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import optimizers, pauli
from .bases import energies, require_hermitian
from .circuits import AnsatzSpec, apply_circuit, efficient_su2_ansatz
from .errors import ShapeError
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


def exact_ground(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian H, in real arithmetic when H has no imaginary part."""
    return float(np.linalg.eigvalsh(require_hermitian(h))[0])


def run_vqe(hamiltonian, ansatz: AnsatzSpec, opt: OptimizerConfig) -> VqeResult:
    """Minimize the circuit expectation value of ``hamiltonian``.

    ``hamiltonian`` may be a dense Hermitian matrix or a PauliSum, which is
    turned into its matrix once; H is checked once, before the loop. Initial
    parameters are drawn uniformly from [-pi, pi) with the seeded generator,
    so a fixed (seed, optimizer, budget) triple reproduces the run exactly.
    The returned trace holds the best-so-far energy at each evaluation. The
    optimizer hands the energy a stack of parameter vectors, whose circuits
    run as one sweep and whose energies come from one ``bases.energies``
    call; every point of a stack gets the stack's end time in ``eval_times``.
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
        values = energies(h, apply_circuit(circuit, thetas)).tolist()
        eval_times.extend([time.perf_counter() - start] * len(values))
        return values

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
