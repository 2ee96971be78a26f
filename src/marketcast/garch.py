"""GARCH(1,1) volatility model.

Conditional variance recursion
    sigma2_t = alpha0 + alpha1 * eps_{t-1}^2 + beta1 * sigma2_{t-1}
estimated by Gaussian quasi-maximum likelihood with sigma2_0 fixed at the
sample variance of the residuals. The optimizer works in an unconstrained
parameterization (log alpha0; logistic persistence and its split between
alpha1 and beta1) so alpha0 > 0, alpha1 >= 0, beta1 >= 0 and
alpha1 + beta1 < 1 hold by construction.

The recursion is written once, in `_variances` (the one `lfilter` call).
`garch_state` returns the variance path paired with the residuals as an
array; `log_likelihood` scores it, and the fit's objective calls the same
helpers, so the fit maximizes the likelihood that `fit-garch` reports.

The fit runs the in-house adaptive Nelder-Mead of `_optimize`. scipy is
imported on first use, inside the functions that call it (`lfilter` and
`expit`), so importing this module loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._optimize import minimize
from .errors import DataError, ModelFitError, NonConvergenceError

__all__ = [
    "GarchParams",
    "garch_recursion",
    "garch_state",
    "log_likelihood",
    "fit_garch11",
    "simulate_garch11",
]

MIN_OBS = 200
# persistence at or above this is effectively integrated GARCH
BOUNDARY_PERSISTENCE = 0.999
# log-likelihood gap (nats) within which the lower-persistence fit is preferred
LL_TIE_NATS = 1.0


@dataclass(frozen=True)
class GarchParams:
    alpha0: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ValueError("alpha1 and beta1 must be non-negative")
        if self.alpha1 + self.beta1 >= 1:
            raise ValueError("alpha1 + beta1 must be below 1")

    @property
    def persistence(self) -> float:
        return self.alpha1 + self.beta1

    @property
    def long_run_variance(self) -> float:
        return self.alpha0 / (1.0 - self.alpha1 - self.beta1)


def _variances(alpha0: float, alpha1: float, beta1: float, eps: np.ndarray, sigma2_0: float) -> np.ndarray:
    """The variance recursion, unchecked: sigma2_1 .. sigma2_n from eps_0 .. eps_{n-1}."""
    from scipy.signal import lfilter

    # sigma2_t - beta1 sigma2_{t-1} = alpha0 + alpha1 eps_{t-1}^2: IIR in t
    drive = alpha0 + alpha1 * eps**2
    out, _ = lfilter([1.0], [1.0, -beta1], drive, zi=np.array([beta1 * sigma2_0]))
    return out


def _qmle_path(alpha0: float, alpha1: float, beta1: float, eps: np.ndarray, sigma2_0: float) -> np.ndarray:
    """sigma2_t paired with eps_t for t = 0..n-1: the seed sigma2_0, then the
    recursion over eps_0 .. eps_{n-2}."""
    return np.concatenate(([sigma2_0], _variances(alpha0, alpha1, beta1, eps[:-1], sigma2_0)))


def _half_nll(eps: np.ndarray, sigma2: np.ndarray) -> float:
    """0.5 * sum(log sigma2_t + eps_t^2 / sigma2_t): minus the quasi-log-likelihood."""
    return 0.5 * np.sum(np.log(sigma2) + eps**2 / sigma2)


def _check_inputs(eps: np.ndarray, sigma2_0: float) -> None:
    if not np.all(np.isfinite(eps)):
        raise DataError("residual series contains non-finite values")
    if not (np.isfinite(sigma2_0) and sigma2_0 > 0):
        raise DataError("sigma2_0 must be positive and finite")


def garch_recursion(params: GarchParams, residuals, sigma2_0: float) -> np.ndarray:
    """Variances sigma2_1 .. sigma2_n from residuals eps_0 .. eps_{n-1}.

    Element t of the output is the variance the model implies for the step
    after residual t; the output has the same length as the input.
    """
    eps = np.asarray(residuals, dtype=float)
    _check_inputs(eps, sigma2_0)
    return _variances(params.alpha0, params.alpha1, params.beta1, eps, sigma2_0)


def garch_state(params: GarchParams, residuals) -> np.ndarray:
    """Conditional variance path of a residual series, as an array the length
    of the series: element t pairs with eps_t, and element 0 is the seed, the
    sample variance of the residuals."""
    eps = np.asarray(residuals, dtype=float)
    if len(eps) == 0:
        raise DataError("empty residual series")
    sigma2_0 = float(np.var(eps))
    _check_inputs(eps, sigma2_0)
    return _qmle_path(params.alpha0, params.alpha1, params.beta1, eps, sigma2_0)


def log_likelihood(residuals, params: GarchParams) -> float:
    """Gaussian quasi-log-likelihood up to the -n/2 log(2 pi) constant."""
    eps = np.asarray(residuals, dtype=float)
    return float(-_half_nll(eps, garch_state(params, eps)))


def _unpack(u: np.ndarray) -> tuple[float, float, float]:
    from scipy.special import expit

    # clamps keep extreme simplex vertices representable: alpha0 > 0 and
    # alpha1 + beta1 strictly below 1 even when expit saturates
    with np.errstate(over="ignore"):
        alpha0 = float(np.exp(np.clip(u[0], -690.0, 690.0)))
    persistence = min(float(expit(u[1])), 1.0 - 1e-9)
    share = float(expit(u[2]))
    return max(alpha0, 1e-300), persistence * share, persistence * (1.0 - share)


def fit_garch11(residuals) -> GarchParams:
    """Quasi-maximum-likelihood GARCH(1,1) fit to a zero-mean residual series.

    sigma2_0 is the sample variance. The search runs Nelder-Mead from the
    standard start (alpha0, alpha1, beta1) = (0.1 * var, 0.1, 0.8) and from a
    low-persistence start (0.9 * var, 0.05, 0.02): with alpha1 near zero the
    likelihood is flat in beta1 (any beta1 with alpha0 = var * (1 - beta1)
    yields the same constant variance path), so on near-homoskedastic data a
    single high-persistence start can report a spuriously persistent fit.
    Among converged starts the higher likelihood wins, except that within
    LL_TIE_NATS the lower-persistence solution is preferred. A persistence
    estimate at or above 0.999 triggers a boundary warning.
    """
    eps = np.asarray(residuals, dtype=float)
    n = len(eps)
    if n < MIN_OBS:
        raise DataError(f"need at least {MIN_OBS} observations, got {n}")
    if not np.all(np.isfinite(eps)):
        raise DataError("residual series contains non-finite values")
    sample_var = float(np.var(eps))
    if sample_var == 0.0:
        raise ModelFitError("degenerate residual series: zero variance")

    def objective(u: np.ndarray) -> float:
        # the inputs were checked above, so the unchecked helpers serve
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = _half_nll(eps, _qmle_path(*_unpack(u), eps, sample_var))
        if not np.isfinite(value):
            return 1e100
        return float(value)

    def pack(alpha0: float, alpha1: float, beta1: float) -> np.ndarray:
        persistence = alpha1 + beta1
        return np.array(
            [
                math.log(alpha0),
                math.log(persistence / (1.0 - persistence)),
                math.log(alpha1 / beta1),
            ]
        )

    starts = [
        pack(0.1 * sample_var, 0.1, 0.8),
        pack(0.9 * sample_var, 0.05, 0.02),
    ]
    results = [
        minimize(objective, u0, maxfev=4000, xatol=1e-6, fatol=1e-9)
        for u0 in starts
    ]
    converged = [r for r in results if r.success]
    if not converged:
        best = min(results, key=lambda r: r.fun)
        alpha0, alpha1, beta1 = _unpack(best.x)
        raise NonConvergenceError(
            f"GARCH(1,1) search stopped after {best.nfev} evaluations without converging",
            best={
                "alpha0": alpha0,
                "alpha1": alpha1,
                "beta1": beta1,
                "negative_ll": float(best.fun),
                "nfev": best.nfev,
            },
        )
    best_fun = min(r.fun for r in converged)
    near_ties = [r for r in converged if r.fun <= best_fun + LL_TIE_NATS]
    result = min(near_ties, key=lambda r: sum(_unpack(r.x)[1:]))
    alpha0, alpha1, beta1 = _unpack(result.x)
    if alpha1 + beta1 >= BOUNDARY_PERSISTENCE:
        warnings.warn(
            f"estimated persistence alpha1 + beta1 = {alpha1 + beta1:.6f} is at the "
            "stationarity boundary; long-run variance is ill-determined",
            stacklevel=2,
        )
    return GarchParams(alpha0=alpha0, alpha1=alpha1, beta1=beta1)


def simulate_garch11(params: GarchParams, n: int, rng: np.random.Generator, burn: int = 500) -> np.ndarray:
    """Simulate a GARCH(1,1) residual series with standard normal shocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = n + burn
    z = rng.standard_normal(total)
    eps = np.empty(total)
    sig2 = params.long_run_variance
    for t in range(total):
        if t > 0:
            sig2 = params.alpha0 + params.alpha1 * eps[t - 1] ** 2 + params.beta1 * sig2
        eps[t] = math.sqrt(sig2) * z[t]
    return eps[burn:]
