"""Adaptive Nelder-Mead, the one optimizer behind the ARIMA and GARCH fits.

`minimize` does the arithmetic of scipy's ``minimize(method="Nelder-Mead",
options={"adaptive": True, ...})`` step for step (scipy 1.17's
``_minimize_neldermead``): the same initial simplex, the same
reflection, expansion, contraction and shrink expressions with the Gao-Han
dimension-adapted coefficients, the same ``np.add.reduce`` centroid and the
same ``np.argsort`` ordering, so it returns the same bits. What it leaves out
is scipy's per-evaluation and per-iteration bookkeeping (a copy of every
trial point, a scalar check of every value, one result object and callback
check per iteration, an array test of the value spread). In the ARIMA
grid an evaluation took 70 µs inside scipy's loop and 50 µs inside this one
(2-vCPU Xeon, with the objective unchanged but for its p = 1 AR product).

Both model modules bind this one function as their module-level ``minimize``
and look it up on each fit, so the benchmark's layer trace
(perfbench/tracing.py) can wrap it by name and read ``nfev`` off the result.
It imports nothing beyond numpy.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def minimize(
    fun: Callable[[np.ndarray], float],
    x0,
    *,
    maxfev: int,
    xatol: float,
    fatol: float,
) -> MinimizeResult:
    """Minimize `fun` from `x0` by adaptive Nelder-Mead.

    The search stops once every vertex lies within `xatol` of the best one in
    each coordinate and every value within `fatol` of the best value
    (`success` is True), or once `maxfev` evaluations are spent (`success`
    is False, as in scipy, even if that last iteration converged). An iteration cut by the budget keeps what it had
    done: a shrink cut at vertex j has moved vertex j but not re-scored it.
    `fun` must return a float and must not modify its argument, which may be
    a row of the simplex.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    dim = float(n)
    # Gao and Han (2012): rho = 1, so the reflection, expansion and
    # contraction coefficients below are scipy's with rho factored out
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)

    nfev = 0
    for k in range(min(n + 1, maxfev)):
        fsim[k] = fun(sim[k])
        nfev += 1
    # sorted twice, as scipy does: argsort is not stable, so a second pass
    # may reorder ties (common, since the model objectives return 1e100 on
    # overflow); numpy 2.4 was not seen to, but no numpy promises it
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    while nfev < maxfev:
        # fsim is sorted (NaN last), so its largest gap to fsim[0] is the last
        # one, and a scalar test decides what scipy's array test does; it
        # goes first because it fails on most iterations
        if fsim[-1] - fsim[0] <= fatol and np.abs(sim[1:] - sim[0]).max() <= xatol:
            break
        worst = sim[-1]
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - worst
        fxr = fun(xr)
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + chi) * xbar - chi * worst
                fxe = fun(xe)
                nfev += 1
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi) * xbar - psi * worst
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * worst
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            nfev += 1
            if accept:
                sim[-1] = xc
                fsim[-1] = fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    if nfev >= maxfev:
                        break
                    fsim[j] = fun(sim[j])
                    nfev += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    return MinimizeResult(x=sim[0], fun=fsim.min(), nfev=nfev, success=nfev < maxfev)
