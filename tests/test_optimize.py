"""`_optimize.minimize` against scipy's adaptive Nelder-Mead, bit for bit."""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from marketcast._optimize import minimize

H = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 2.0]])
CENTER = np.array([0.3, -1.1, 2.0])


def quadratic(x):
    d = x - CENTER
    return float(d @ H @ d)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def boxed(x):
    # the model objectives' overflow convention: one flat value outside a
    # region, so several vertices tie and argsort's tie order decides
    if np.any(np.abs(x) > 1.0):
        return 1e100
    return float(np.sum((x - 0.2) ** 2))


def stairs(x):
    # plateaus make contractions fail, so the simplex shrinks
    return float(np.floor(8 * np.sum(x**2)))


ROSEN_X0 = np.array([1.3, 0.7, 0.8, 1.9, 1.2])
STAIRS_X0 = np.array([1.0, -2.0, 0.5])


def assert_bit_equal(fun, x0, maxfev, xatol=1e-8, fatol=1e-10):
    options = {"maxfev": maxfev, "maxiter": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": True}
    want = scipy_minimize(fun, x0, method="Nelder-Mead", options=options)
    got = minimize(fun, x0, maxfev=maxfev, xatol=xatol, fatol=fatol)
    assert [float(v).hex() for v in got.x] == [float(v).hex() for v in want.x]
    assert float(got.fun).hex() == float(want.fun).hex()
    assert (got.nfev, got.success) == (want.nfev, want.success)
    return got


@pytest.mark.parametrize(
    "fun, x0, maxfev",
    [
        (quadratic, np.array([1.0, -2.0, 0.5]), 2000),
        (rosenbrock, ROSEN_X0, 4000),
        (boxed, np.array([0.98, 0.99, 0.97, 0.5]), 2000),
        # zero entries step to 0.00025 instead of by 5%
        (quadratic, np.array([0.0, 1.5, 0.0]), 2000),
        # plateaus tie trial values, so `<=` against `<` in a contraction test decides
        (stairs, np.array([0.5, -0.9, -1.8]), 2000),
    ],
    ids=["quadratic", "rosenbrock-5d", "boxed-ties", "zero-x0", "stairs-plateaus"],
)
def test_matches_scipy(fun, x0, maxfev):
    result = assert_bit_equal(fun, x0, maxfev)
    assert result.success


# Where each budget runs out (found by labelling every evaluation with the
# step that made it): the simplex needs n + 1 evaluations; evaluation 8 of
# the Rosenbrock run is an expansion, 37 an inside and 57 an outside
# contraction; on the stairs, evaluations 32 onward shrink vertices 1, 2, 3.
@pytest.mark.parametrize(
    "fun, x0, maxfev",
    [
        (rosenbrock, ROSEN_X0, 3),
        (rosenbrock, ROSEN_X0, 7),
        (rosenbrock, ROSEN_X0, 36),
        (rosenbrock, ROSEN_X0, 56),
        (stairs, STAIRS_X0, 31),
        (stairs, STAIRS_X0, 32),
    ],
    ids=["initial-simplex", "expansion", "inside-contraction", "outside-contraction",
         "shrink-first-vertex", "shrink-second-vertex"],
)
def test_budget_cut_matches_scipy(fun, x0, maxfev):
    result = assert_bit_equal(fun, x0, maxfev)
    assert not result.success
    assert result.nfev == maxfev


@pytest.mark.parametrize("fun, x0", [(rosenbrock, ROSEN_X0), (stairs, STAIRS_X0)], ids=["rosenbrock", "stairs"])
def test_every_small_budget_matches_scipy(fun, x0):
    for maxfev in range(1, 81):
        assert_bit_equal(fun, x0, maxfev)
