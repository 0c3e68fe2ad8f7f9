import numpy as np
import pytest

from qcosmo import optimizers

MINIMIZERS = [
    optimizers.nelder_mead,
    optimizers.gradient_descent,
]


def quadratic(x):
    return float(np.sum((x - 1.0) ** 2))


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
    res = minimize(lambda x: 1.0, np.zeros(2), budget=10_000, tol=1e-9)
    assert res.converged
    assert res.n_evals < 10_000


def test_rosenbrock_progress():
    def rosen(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    start = np.array([-1.2, 1.0])
    f0 = rosen(start)
    for minimize in MINIMIZERS:
        res = minimize(rosen, start, budget=2000, tol=1e-12)
        assert res.fun < f0 / 5
