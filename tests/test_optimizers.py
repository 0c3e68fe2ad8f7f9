import numpy as np
import pytest

from qcosmo import optimizers

MINIMIZERS = [
    optimizers.nelder_mead,
    optimizers.gradient_descent,
]


def quadratic(xs):
    return np.sum((xs - 1.0) ** 2, axis=1)


@pytest.mark.parametrize("minimize", MINIMIZERS)
def test_quadratic_sanity(minimize):
    res = minimize(quadratic, np.zeros(4), budget=1500, tol=1e-12)
    assert res.fun <= 1e-6
    assert res.n_evals <= 1500


@pytest.mark.parametrize("minimize", MINIMIZERS)
def test_budget_respected(minimize):
    res = minimize(quadratic, np.zeros(6), budget=40, tol=1e-12)
    assert res.n_evals <= 40
    assert len(res.history) == res.n_evals


@pytest.mark.parametrize("minimize", MINIMIZERS)
def test_deterministic(minimize):
    r1 = minimize(quadratic, np.full(3, 0.3), budget=200, tol=1e-12)
    r2 = minimize(quadratic, np.full(3, 0.3), budget=200, tol=1e-12)
    assert r1.history == r2.history
    assert np.array_equal(r1.x, r2.x)


@pytest.mark.parametrize("minimize", MINIMIZERS)
def test_best_tracks_history(minimize):
    res = minimize(quadratic, np.zeros(3), budget=300, tol=1e-12)
    assert res.fun == pytest.approx(min(res.history))


def test_budget_one_is_valid():
    res = optimizers.nelder_mead(quadratic, np.zeros(3), budget=1, tol=1e-9)
    assert res.n_evals == 1
    assert not res.converged


@pytest.mark.parametrize("minimize", MINIMIZERS)
def test_stagnation_flags_convergence(minimize):
    # constant objective: nothing improves, so the 2n-evaluation window trips
    res = minimize(lambda xs: np.ones(len(xs)), np.zeros(2), budget=10_000, tol=1e-9)
    assert res.converged
    assert res.n_evals < 10_000


def test_rosenbrock_progress():
    def rosen(xs):
        return (1 - xs[:, 0]) ** 2 + 100 * (xs[:, 1] - xs[:, 0] ** 2) ** 2

    start = np.array([-1.2, 1.0])
    f0 = rosen(start[None])[0]
    for minimize in MINIMIZERS:
        res = minimize(rosen, start, budget=2000, tol=1e-12)
        assert res.fun < f0 / 5


# The one-point-at-a-time loops that the stacked minimizers replaced, kept as their oracle.

class _SequentialTracker:
    def __init__(self, f, budget, tol, window):
        self.f, self.budget, self.tol, self.window = f, budget, tol, max(window, 2)
        self.history, self.best, self.best_x = [], np.inf, None

    def __call__(self, x):
        if len(self.history) >= self.budget:
            raise optimizers._Budget
        val = float(self.f(np.asarray(x, dtype=float)[None])[0])
        self.history.append(val)
        if val < self.best:
            self.best, self.best_x = val, np.array(x, dtype=float)
        recent = self.history[-self.window:]
        if len(recent) == self.window and max(recent) - min(recent) < self.tol:
            raise optimizers._Converged
        return val


def _sequential(core, f, x0, budget, tol):
    x0 = np.asarray(x0, dtype=float)
    fe = _SequentialTracker(f, budget, tol, 2 * len(x0))
    try:
        core(fe, x0)
        converged = True
    except optimizers._Budget:
        converged = False
    except optimizers._Converged:
        converged = True
    return optimizers.OptResult(fe.best_x, fe.best, len(fe.history), converged, fe.history)


def sequential_nelder_mead(f, x0, budget=600, tol=1e-9, step=0.5):
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

    return _sequential(core, f, x0, budget, tol)


def sequential_gradient_descent(f, x0, budget=600, tol=1e-9, step0=0.5):
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

    return _sequential(core, f, x0, budget, tol)


PAIRS = [
    (optimizers.nelder_mead, sequential_nelder_mead),
    (optimizers.gradient_descent, sequential_gradient_descent),
]


def assert_same_run(stacked, sequential):
    assert stacked.history == sequential.history
    assert stacked.n_evals == sequential.n_evals == len(sequential.history)
    assert stacked.fun == sequential.fun and stacked.converged == sequential.converged
    assert np.array_equal(stacked.x, sequential.x)


def _rough(xs):
    # many shallow minima: nelder-mead shrinks after 12, 24 and 33 evaluations from x0 below
    return np.sum(np.cos(40 * xs), axis=1)


@pytest.mark.parametrize("stacked, sequential", PAIRS)
@pytest.mark.parametrize("objective, n", [(quadratic, 5), (_rough, 4)])
def test_stacked_matches_sequential_at_every_budget(stacked, sequential, objective, n):
    # the budgets up to 80 end inside every kind of stack: probes, simplex and shrink
    x0 = np.linspace(-0.7, 0.9, n)
    for budget in range(1, 81):
        assert_same_run(stacked(objective, x0, budget=budget, tol=1e-12),
                        sequential(objective, x0, budget=budget, tol=1e-12))


@pytest.mark.parametrize("stacked, sequential, objective, tol", [
    # nelder-mead: 6 simplex points, a reflection and a contraction, then a shrink of 5
    # points, inside which the 10-point window fills
    (optimizers.nelder_mead, sequential_nelder_mead, lambda xs: np.ones(len(xs)), 1e-9),
    # gradient descent: 1 point, 5 probes, a line-search point, then 5 probes, inside which
    # the window of values spread less than tol fills
    (optimizers.gradient_descent, sequential_gradient_descent,
     lambda xs: 1e-9 * np.sum(xs, axis=1), 1.0),
])
def test_stacked_settles_mid_stack_like_sequential(stacked, sequential, objective, tol):
    rows = []

    def counted(xs):
        rows.append(len(xs))
        return objective(xs)

    res = stacked(counted, np.zeros(5), budget=1000, tol=tol)
    assert_same_run(res, sequential(objective, np.zeros(5), budget=1000, tol=tol))
    assert res.converged and res.n_evals == 10
    assert sum(rows) > res.n_evals  # the last stack was evaluated past the settling point
