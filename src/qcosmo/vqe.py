"""Hybrid variational loop and the exact dense eigensolver oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import optimizers, pauli
from .bases import energies, require_hermitian
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


# The smallest dimension at which exact_ground splits a mode-exchange symmetric H. On a
# 2-core Intel Xeon host (OpenBLAS 0.3.31 on one thread; medians of 101 calls, three
# processes) gathering and solving the two blocks lost to one eigvalsh at 16 rows
# (0.012-0.018 -> 0.068-0.095 ms) and at 64 (0.15-0.19 -> 0.19-0.26 ms), and won at 256:
# table4-256 2.6-3.6 -> 1.8-2.3 ms, table5 (complex) 6.6-9.5 -> 2.9-3.7 ms.
EXCHANGE_SPLIT_MIN_DIM = 256


def exact_ground(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian H, in real arithmetic when H has no imaginary part.

    An H of at least ``EXCHANGE_SPLIT_MIN_DIM`` rows that commutes bit for bit with the
    exchange of two equal tensor factors is solved as its exchange-even and exchange-odd
    blocks, about half the size each; any other H takes one full eigvalsh. A ground that
    is not finite, as eigvalsh returns for entries near the float maximum, raises
    ``DomainError``.
    """
    h = require_hermitian(h)
    blocks = _exchange_blocks(h) if h.shape[0] >= EXCHANGE_SPLIT_MIN_DIM else None
    if blocks is None:
        ground = float(np.linalg.eigvalsh(h)[0])
    else:
        ground = min(float(np.linalg.eigvalsh(b)[0]) for b in blocks)
    if not math.isfinite(ground):
        raise DomainError(f"the exact ground is not finite ({ground})")
    return ground


def _exchange_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The exchange-even and exchange-odd blocks of a d^2 x d^2 H, or None without the symmetry.

    The test is exact: ``h.reshape(d, d, d, d)`` must equal its (1, 0, 3, 2) transpose. The
    even block is spanned by the d states |ii> and (|ij> + |ji>)/sqrt(2) for i < j, the odd
    block by (|ij> - |ji>)/sqrt(2). With a = |ij> and b = |ji>, the symmetry gives
    H[b, b'] = H[a, a'] and H[b, a'] = H[a, b'], so a pair-pair entry is H[a, a'] +- H[a, b']
    with weight 1, and an entry between |ii> and a pair state is sqrt(2) H[ii, a'].
    """
    d = math.isqrt(h.shape[0])
    if d * d != h.shape[0]:
        return None
    t = h.reshape(d, d, d, d)
    if not np.array_equal(t, t.transpose(1, 0, 3, 2)):
        return None
    i, j = np.triu_indices(d, 1)
    a, b, f = i * d + j, j * d + i, np.arange(d) * (d + 1)
    direct, crossed = h[np.ix_(a, a)], h[np.ix_(a, b)]
    even = np.empty((d + a.size,) * 2, dtype=h.dtype)
    even[:d, :d] = h[np.ix_(f, f)]
    even[:d, d:] = math.sqrt(2) * h[np.ix_(f, a)]
    even[d:, :d] = math.sqrt(2) * h[np.ix_(a, f)]
    even[d:, d:] = direct + crossed
    return even, direct - crossed


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
