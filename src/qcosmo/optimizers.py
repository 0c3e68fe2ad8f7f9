"""A derivative-free and a finite-difference minimizer for the variational loop.

Both minimizers share the same interface and bookkeeping. The objective takes
a stack of points, shape ``(m, n)``, and returns their ``m`` values, so a
gradient's probes or a simplex's vertices are evaluated in one call. Every
value is recorded one point at a time, in stack order, and a run stops when
the evaluation budget is exhausted or when the best value has improved by
less than ``tol`` over ``2 * n_params`` consecutive evaluations; where it
stops does not depend on how the points were stacked. Given the same
starting point the iterations are fully deterministic. ``OptimizerKind`` names
the two and ``OptimizerConfig`` holds a run's kind, budget, tolerance and seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


class OptimizerKind(enum.Enum):
    NELDER_MEAD = "nelder-mead"
    GRADIENT_DESCENT = "gradient-descent"


@dataclass(frozen=True)
class OptimizerConfig:
    kind: OptimizerKind = OptimizerKind.GRADIENT_DESCENT
    budget: int = 600
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ShapeError("budget must be >= 1")


@dataclass
class OptResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool
    history: list[float] = field(default_factory=list)


class _Budget(Exception):
    pass


class _Converged(Exception):
    pass


class _Tracker:
    """Counts evaluations, records history, and detects settling.

    The run is declared converged once the last ``window`` energies all lie
    within ``tol`` of each other (the iterate cloud has stopped moving).
    """

    def __init__(self, f, budget: int, tol: float, window: int):
        self.f = f
        self.budget = budget
        self.tol = tol
        self.window = max(window, 2)
        self.history: list[float] = []
        self.best = np.inf
        self.best_x = None

    def __call__(self, points) -> np.ndarray:
        """Values of a stack of points, evaluating only as many as the budget allows."""
        left = self.budget - len(self.history)
        if left <= 0:
            raise _Budget
        points = np.asarray(points, dtype=float)
        run = points[:left]
        values = np.asarray(self.f(run), dtype=float)
        if values.shape != (len(run),):
            raise ValueError(f"objective returned shape {values.shape} for {len(run)} points")
        for x, val in zip(run, values.tolist()):
            self.history.append(val)
            if val < self.best:
                self.best = val
                self.best_x = x.copy()
            recent = self.history[-self.window:]
            if len(recent) == self.window and max(recent) - min(recent) < self.tol:
                raise _Converged
        if len(points) > left:
            raise _Budget
        return values

    def one(self, x) -> float:
        """Value of one point, evaluated as a stack of one."""
        return self(np.asarray(x, dtype=float)[None])[0]

    def result(self, converged: bool) -> OptResult:
        return OptResult(
            x=self.best_x,
            fun=self.best,
            n_evals=len(self.history),
            converged=converged,
            history=self.history,
        )


def _run(core, f, x0, budget, tol):
    x0 = np.asarray(x0, dtype=float)
    tracker = _Tracker(f, budget, tol, window=2 * len(x0))
    try:
        # a core that returns on its own hit a natural stationarity condition
        core(tracker, x0)
        converged = True
    except _Budget:
        converged = False
    except _Converged:
        converged = True
    return tracker.result(converged)


def nelder_mead(f, x0, budget, tol):
    """Classic simplex search (reflect / expand / contract / shrink).

    The initial simplex has edges of 0.5 along each coordinate; it and each
    shrink are evaluated as one stack.
    """

    def core(fe, x0):
        simplex = np.vstack([x0, x0 + 0.5 * np.eye(len(x0))])
        values = fe(simplex)
        while True:
            order = np.argsort(values)
            simplex, values = simplex[order], values[order]
            centroid = np.mean(simplex[:-1], axis=0)
            xr = centroid + (centroid - simplex[-1])
            fr = fe.one(xr)
            if fr < values[0]:
                xe = centroid + 2.0 * (centroid - simplex[-1])
                fex = fe.one(xe)
                if fex < fr:
                    simplex[-1], values[-1] = xe, fex
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = centroid + 0.5 * (simplex[-1] - centroid)
                fc = fe.one(xc)
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:
                    simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                    values[1:] = fe(simplex[1:])

    return _run(core, f, x0, budget, tol)


def gradient_descent(f, x0, budget, tol):
    """Forward-difference gradient descent with backtracking line search.

    Difference step per coordinate is 1e-6 * (1 + |theta_i|); the probes of
    one gradient are evaluated as one stack. The line-search step starts at
    0.5, grows by 1.5x after an immediately accepted step and halves while
    the Armijo condition fails.
    """

    def core(fe, x0):
        x = np.array(x0, dtype=float)
        fx = fe.one(x)
        alpha = 0.5
        diagonal = np.diag_indices(len(x))
        while True:
            h = 1e-6 * (1.0 + np.abs(x))
            probes = np.tile(x, (len(x), 1))
            probes[diagonal] += h
            grad = (fe(probes) - fx) / h
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-14:
                return
            direction = -grad / gnorm
            accepted = False
            trial_alpha = alpha
            for _ in range(30):
                xt = x + trial_alpha * direction
                ft = fe.one(xt)
                if ft < fx - 1e-4 * trial_alpha * gnorm:
                    x, fx = xt, ft
                    accepted = True
                    break
                trial_alpha *= 0.5
            if not accepted:
                return
            alpha = trial_alpha * 1.5 if trial_alpha == alpha else trial_alpha

    return _run(core, f, x0, budget, tol)
