"""A derivative-free and a finite-difference minimizer for the variational loop.

Both minimizers share the same interface and bookkeeping: the objective
is wrapped in an evaluation counter, every call is recorded, and a run stops
when the evaluation budget is exhausted or when the best value has improved
by less than ``tol`` over ``2 * n_params`` consecutive evaluations. Given the
same starting point the iterations are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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

    def __call__(self, x):
        if len(self.history) >= self.budget:
            raise _Budget
        val = float(self.f(np.asarray(x, dtype=float)))
        self.history.append(val)
        if val < self.best:
            self.best = val
            self.best_x = np.array(x, dtype=float)
        recent = self.history[-self.window:]
        if len(recent) == self.window and max(recent) - min(recent) < self.tol:
            raise _Converged
        return val

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


def nelder_mead(f, x0, budget=600, tol=1e-9, step=0.5):
    """Classic simplex search (reflect / expand / contract / shrink)."""

    def core(fe, x0):
        n = len(x0)
        simplex = [x0] + [x0 + step * np.eye(n)[i] for i in range(n)]
        values = [fe(p) for p in simplex]
        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            centroid = np.mean(simplex[:-1], axis=0)
            xr = centroid + (centroid - simplex[-1])
            fr = fe(xr)
            if fr < values[0]:
                xe = centroid + 2.0 * (centroid - simplex[-1])
                fex = fe(xe)
                if fex < fr:
                    simplex[-1], values[-1] = xe, fex
                else:
                    simplex[-1], values[-1] = xr, fr
            elif fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
            else:
                xc = centroid + 0.5 * (simplex[-1] - centroid)
                fc = fe(xc)
                if fc < values[-1]:
                    simplex[-1], values[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        values[i] = fe(simplex[i])

    return _run(core, f, x0, budget, tol)


def gradient_descent(f, x0, budget=600, tol=1e-9, step0=0.5):
    """Forward-difference gradient descent with backtracking line search.

    Difference step per coordinate is 1e-6 * (1 + |theta_i|). The line-search
    step grows by 1.5x after an immediately accepted step and halves while
    the Armijo condition fails.
    """

    def core(fe, x0):
        x = np.array(x0, dtype=float)
        fx = fe(x)
        alpha = step0
        while True:
            grad = np.zeros_like(x)
            for i in range(len(x)):
                h = 1e-6 * (1.0 + abs(x[i]))
                xp = x.copy()
                xp[i] += h
                grad[i] = (fe(xp) - fx) / h
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-14:
                return
            direction = -grad / gnorm
            accepted = False
            trial_alpha = alpha
            for _ in range(30):
                xt = x + trial_alpha * direction
                ft = fe(xt)
                if ft < fx - 1e-4 * trial_alpha * gnorm:
                    x, fx = xt, ft
                    accepted = True
                    break
                trial_alpha *= 0.5
            if not accepted:
                return
            alpha = trial_alpha * 1.5 if trial_alpha == alpha else trial_alpha

    return _run(core, f, x0, budget, tol)
