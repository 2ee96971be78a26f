"""ARIMA(p,d,q) fitting, order selection, and forecasting.

Estimation minimizes the conditional sum of squared innovations (pre-sample
innovations fixed at zero, conditioning on the first p observations), starting
from Hannan-Rissanen regression estimates and refined with the in-house
adaptive Nelder-Mead of `_optimize` (scipy's steps, bit for bit). Order
selection is an exhaustive grid over (p, d, q) scored by AIC in Gaussian-CSS
form; differencing needs no separate unit-root pretest because d competes in
the same grid.

Nelder-Mead evaluates the objective thousands of times per fit, so what
depends only on the series and the order (the lag matrix, y[p:], the buffers
for the AR product and the MA filter's denominator) is built once per fit by
`_innovations_for`; an evaluation is one subtraction, one AR product, one
`lfilter` and one dot product. The objective, the final sum of squares and
`forecast` share that one innovations routine. A rolling forecast reads the fit's innovations
directly: the one-step prediction of x_t is x_t - eps_t, which uses no data
from t on, because x_t enters eps_t with coefficient 1 and cancels.

scipy is imported on first use: `lfilter`, on the first innovations build
with q > 0. Of the commands, `run` with an ARIMA leg (its grid has MA
candidates), `fit-arima` and `forecast` of an order with MA terms, and
`fit-garch` load it; the others, and `fit-arima` and `forecast` of a pure-AR
order, never do.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._optimize import minimize
from .errors import DataError, ModelFitError, NonConvergenceError, NonStationaryError

__all__ = [
    "ArimaOrder",
    "ArimaModel",
    "ForecastMode",
    "difference",
    "undifference",
    "fit_arma",
    "aic",
    "auto_arima",
    "forecast",
    "model_to_dict",
    "model_from_dict",
]

DEFAULT_BOUNDS = (5, 2, 5)

# AR roots this close to the unit circle fail the fit; slightly further out
# they only warn.
HARD_ROOT_LIMIT = 1.001
SOFT_ROOT_LIMIT = 1.01
# AR and MA roots closer than this describe a redundant (near-canceling) pair;
# scale set by coefficient detectability ~2/sqrt(n) at the series lengths used here
CANCEL_ROOT_GAP = 0.06


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ValueError("order terms must be non-negative")

    def __iter__(self):
        return iter((self.p, self.d, self.q))


@dataclass(frozen=True)
class ArimaModel:
    """Fitted model: coefficients on the d-differenced scale plus diagnostics."""

    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    intercept: float
    sigma2: float
    n_obs: int
    aic: float

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        theta = np.array(self.theta, dtype=float)
        phi.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)
        if len(phi) != self.order.p or len(theta) != self.order.q:
            raise ValueError("coefficient lengths disagree with the order")
        if self.sigma2 <= 0:
            raise ValueError("innovation variance must be positive")


class ForecastMode(Enum):
    # single origin, multi-step across the whole horizon
    STATIC = "static"
    # one-step-ahead, re-anchored on each true observation, no refitting
    ROLLING = "rolling"


def difference(series, d: int) -> np.ndarray:
    """d-fold first differences; output is d elements shorter."""
    series = np.asarray(series, dtype=float)
    if d < 0:
        raise ValueError("d must be non-negative")
    if len(series) <= d:
        raise DataError(f"series of length {len(series)} cannot be differenced {d} times")
    return np.diff(series, n=d) if d > 0 else series.copy()


def undifference(diffed, anchors, d: int) -> np.ndarray:
    """Integrate d-fold differences back to the original scale.

    `anchors` are the d original-scale values immediately preceding the first
    reconstructed point, so undifference(difference(x, d), x[:d], d) == x[d:]
    and forecasts are rebuilt from the last d observed values.
    """
    out = np.asarray(diffed, dtype=float).copy()
    anchors = np.asarray(anchors, dtype=float)
    if anchors.size != d:
        raise DataError(f"expected {d} anchor values, got {anchors.size}")
    levels = []
    level = anchors
    for _ in range(d):
        levels.append(level)
        level = np.diff(level)
    for level in reversed(levels):
        out = level[-1] + np.cumsum(out)
    return out


def aic(sse: float, n: int, k: int) -> float:
    """Gaussian conditional-sum-of-squares information criterion."""
    if sse <= 0:
        raise ValueError("sse must be positive")
    if n <= k:
        raise ValueError("sample size must exceed parameter count")
    return n * math.log(sse / n) + 2 * k


def _lag_matrix(y: np.ndarray, p: int) -> np.ndarray:
    """Rows t = p..n-1, columns y[t-1], ..., y[t-p]."""
    n = len(y)
    return np.column_stack([y[p - i : n - i] for i in range(1, p + 1)])


def _innovations_for(y: np.ndarray, p: int, q: int):
    """Build the conditional innovations of an ARMA(p, q) on `y`, for
    t = p..n-1 with zero pre-sample errors, as a function of
    (intercept, phi, theta).

    Everything that depends only on (y, p, q) is made here, once: the
    observations y[p:], the lag matrix, the buffer for its product with phi,
    and the [1, theta] filter denominator, which each call overwrites in
    place. For p = 1 the product is an elementwise multiply: BLAS's
    matrix-vector product on one column costs about four times as much and
    gives the same bits. scipy's `lfilter` is imported only for q > 0, so a
    pure-AR model forecasts without scipy.
    """
    if q:
        from scipy.signal import lfilter

    observed = y[p:]
    lags = _lag_matrix(y, p) if p else None
    ar_part = np.empty(len(observed)) if p else None
    numerator = np.ones(1)
    denominator = np.ones(q + 1)

    def innovations(intercept: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        z = observed - intercept
        if p == 1:
            z -= np.multiply(lags[:, 0], phi[0], out=ar_part)
        elif p:
            z -= np.matmul(lags, phi, out=ar_part)
        if q:
            # eps_t + theta_1 eps_{t-1} + ... = z_t, an IIR filter with zero state
            denominator[1:] = theta
            return lfilter(numerator, denominator, z)
        return z

    return innovations


def _hannan_rissanen(y: np.ndarray, p: int, q: int) -> np.ndarray:
    """Two-stage regression start values: [intercept, phi..., theta...]."""
    n = len(y)
    if q == 0:
        rows = y[p:]
        design = np.column_stack([np.ones(n - p)] + ([_lag_matrix(y, p)] if p else []))
        coef, *_ = np.linalg.lstsq(design, rows, rcond=None)
        return coef
    m = min(max(p, q) + 8, max((n - 1) // 3, max(p, q) + 1))
    design = np.column_stack([np.ones(n - m), _lag_matrix(y, m)])
    coef, *_ = np.linalg.lstsq(design, y[m:], rcond=None)
    resid = np.zeros(n)
    resid[m:] = y[m:] - design @ coef
    start = m + q
    cols = [np.ones(n - start)]
    if p:
        cols.append(_lag_matrix(y, p)[start - p :])
    for j in range(1, q + 1):
        cols.append(resid[start - j : n - j])
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), y[start:], rcond=None)
    if not np.all(np.isfinite(coef)):
        coef = np.zeros(1 + p + q)
        coef[0] = y.mean()
    return coef


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of 1 + c_1 z + ... + c_k z^k; the AR roots are _roots(-phi)."""
    return np.roots(np.concatenate((coeffs[::-1], [1.0])))


def _check_stationarity(phi: np.ndarray) -> None:
    if len(phi) == 0 or not phi.any():
        return
    roots = _roots(-phi)
    if roots.size == 0:
        return
    closest = float(np.min(np.abs(roots)))
    if closest < HARD_ROOT_LIMIT:
        raise NonStationaryError(
            f"AR root at modulus {closest:.6f} is on or inside the unit circle"
        )
    if closest < SOFT_ROOT_LIMIT:
        warnings.warn(
            f"AR root at modulus {closest:.6f} is close to the unit circle",
            stacklevel=3,
        )


def fit_arma(series, p: int, q: int) -> ArimaModel:
    """Fit an ARMA(p, q) with intercept to an already-stationary series.

    Returns a model with d = 0. Raises DataError when the series is too short,
    ModelFitError on a degenerate (constant) series or failed optimization,
    and NonStationaryError when the fitted AR polynomial has a root at or
    inside the unit circle.
    """
    y = np.asarray(series, dtype=float)
    n = len(y)
    k = p + q + 1
    if n < 10 * k:
        raise DataError(f"need at least {10 * k} observations to fit ARMA({p},{q}), got {n}")
    if not np.all(np.isfinite(y)):
        raise DataError("series contains non-finite values")
    if np.var(y) == 0.0:
        raise ModelFitError("degenerate series: zero variance")
    n_eff = n - p

    if p == 0 and q == 0:
        intercept = float(y.mean())
        phi = theta = np.empty(0)
        sse = float(np.sum((y - intercept) ** 2))
    else:
        innovations = _innovations_for(y, p, q)

        def objective(params: np.ndarray) -> float:
            eps = innovations(params[0], params[1 : 1 + p], params[1 + p :])
            sse = float(eps @ eps)
            if not math.isfinite(sse) or sse <= 0:
                return 1e100
            return math.log(sse / n_eff)

        x0 = _hannan_rissanen(y, p, q)
        # trial points far outside the invertible region overflow the filter;
        # the objective maps those to 1e100, so the warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            result = minimize(objective, x0, maxfev=400 * (k + 1), xatol=1e-6, fatol=1e-10)
        params = result.x
        if not result.success:
            raise NonConvergenceError(
                f"ARMA({p},{q}) search stopped after {result.nfev} evaluations "
                "without converging",
                best={"params": params.tolist(), "objective": float(result.fun), "nfev": result.nfev},
            )
        intercept = float(params[0])
        phi = params[1 : 1 + p]
        theta = params[1 + p :]
        _check_stationarity(phi)
        eps = innovations(params[0], phi, theta)
        sse = float(eps @ eps)
    return ArimaModel(
        order=ArimaOrder(p, 0, q),
        phi=phi,
        theta=theta,
        intercept=intercept,
        sigma2=sse / n_eff,
        n_obs=n_eff,
        aic=aic(sse, n_eff, k),
    )


def auto_arima(series, bounds=DEFAULT_BOUNDS) -> ArimaModel:
    """Grid-search orders up to (p_max, d_max, q_max), returning the AIC minimum.

    Every candidate is fitted on the d-differenced series; candidates that
    fail to fit are skipped. A candidate whose AR polynomial has a root inside
    the soft warning band is skipped as well whenever deeper differencing is
    still available (d < d_max): a near-unit AR root is the differenced model
    in disguise, and its intercept lets it shave a few nats of AIC off the
    honest representation. Mixed candidates whose AR and MA polynomials share
    a near-common root are skipped too: the pair cancels, so the model is a
    redundant reparameterization of a smaller one. Ties break toward fewer
    AR+MA terms, then less differencing, then fewer AR terms.
    """
    series = np.asarray(series, dtype=float)
    p_max, d_max, q_max = bounds
    candidates: list[ArimaModel] = []
    failures: list[str] = []
    for d in range(d_max + 1):
        if len(series) <= d:
            failures.append(f"d={d}: series too short to difference")
            continue
        w = difference(series, d)
        for p in range(p_max + 1):
            for q in range(q_max + 1):
                try:
                    with warnings.catch_warnings():
                        # root warnings for discarded candidates are noise;
                        # the winner is re-checked below
                        warnings.simplefilter("ignore")
                        model = fit_arma(w, p, q)
                except (ModelFitError, DataError) as exc:
                    failures.append(f"({p},{d},{q}): {exc}")
                    continue
                ar_roots = _roots(-model.phi)
                if d < d_max and p > 0:
                    closest = float(np.min(np.abs(ar_roots)))
                    if closest < SOFT_ROOT_LIMIT:
                        failures.append(
                            f"({p},{d},{q}): AR root at modulus {closest:.6f}; "
                            "deferred to deeper differencing"
                        )
                        continue
                if p > 0 and q > 0:
                    gaps = np.abs(ar_roots[:, None] - _roots(model.theta)[None, :])
                    if float(gaps.min()) < CANCEL_ROOT_GAP:
                        failures.append(
                            f"({p},{d},{q}): near-canceling AR/MA root pair "
                            f"(gap {float(gaps.min()):.6f})"
                        )
                        continue
                candidates.append(replace(model, order=ArimaOrder(p, d, q)))
    if not candidates:
        raise ModelFitError(
            "no ARIMA candidate could be fitted; first failure: "
            + (failures[0] if failures else "none attempted")
        )
    best = min(
        candidates,
        key=lambda m: (m.aic, m.order.p + m.order.q, m.order.d, m.order.p),
    )
    _check_stationarity(best.phi)
    return best


def forecast(model: ArimaModel, history, steps: int, mode: ForecastMode = ForecastMode.STATIC) -> np.ndarray:
    """Forecast future values in original (undifferenced) units.

    STATIC iterates the ARMA recursion from the end of `history` with future
    innovations at zero, then integrates back, returning the next `steps`
    values. ROLLING treats the last `steps` points of `history` as the
    evaluation span and returns their one-step-ahead predictions, each using
    only true observations before that point (no refitting). A rolling
    prediction is the observation less its innovation, x_t - eps_t: the d-th
    difference holds x_t with coefficient 1, so x_t cancels and what remains
    is built from data before t.

    Raises DataError when any prediction is not finite: the model's
    coefficients overflow on this history, or are not numbers.
    """
    x = np.asarray(history, dtype=float)
    p, d, q = model.order
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(x) < max(p, q) + d + 1:
        raise DataError(
            f"history of {len(x)} values is too short for order ({p},{d},{q})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        preds = _forecast(model, x, steps, mode)
    if not np.all(np.isfinite(preds)):
        raise DataError(
            f"the ({p},{d},{q}) model's forecast is not finite on this history: "
            f"{int(np.sum(~np.isfinite(preds)))} of {steps} predictions overflow or are NaN"
        )
    return preds


def _forecast(model: ArimaModel, x: np.ndarray, steps: int, mode: ForecastMode) -> np.ndarray:
    p, d, q = model.order
    w = difference(x, d)
    eps = _innovations_for(w, p, q)(model.intercept, model.phi, model.theta)

    if mode is ForecastMode.STATIC:
        w_ext = list(w)
        # pre-sample innovations are zero under CSS, future ones zero by design
        eps_ext = [0.0] * p + list(eps)
        preds_w = []
        for _ in range(steps):
            t = len(w_ext)
            value = model.intercept
            for i in range(1, p + 1):
                value += model.phi[i - 1] * w_ext[t - i]
            for j in range(1, q + 1):
                value += model.theta[j - 1] * eps_ext[t - j]
            preds_w.append(value)
            w_ext.append(value)
            eps_ext.append(0.0)
        return undifference(preds_w, x[len(x) - d :], d)

    if len(w) - p < steps:
        raise DataError(
            f"rolling forecast of {steps} steps needs at least {steps + p + d} observations"
        )
    # The prediction of w_t is w_t - eps_t, and w_t is x_t (coefficient 1) plus
    # a combination of x_{t-1} .. x_{t-d}: integrated back it is x_t - eps_t,
    # where x_t cancels, so only observations before t are used.
    return x[len(x) - steps :] - eps[len(eps) - steps :]


def model_to_dict(model: ArimaModel) -> dict:
    return {
        "order": [model.order.p, model.order.d, model.order.q],
        "phi": model.phi.tolist(),
        "theta": model.theta.tolist(),
        "intercept": model.intercept,
        "sigma2": model.sigma2,
        "n_obs": model.n_obs,
        "aic": model.aic,
    }


def _whole(value, name: str) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise DataError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def model_from_dict(payload: dict) -> ArimaModel:
    """The model `model_to_dict` wrote. Raises DataError on a non-integral
    order term or count and on a non-finite coefficient, variance or AIC."""
    p, d, q = (_whole(v, "order term") for v in payload["order"])
    model = ArimaModel(
        order=ArimaOrder(p, d, q),
        phi=np.asarray(payload["phi"], dtype=float),
        theta=np.asarray(payload["theta"], dtype=float),
        intercept=float(payload["intercept"]),
        sigma2=float(payload["sigma2"]),
        n_obs=_whole(payload["n_obs"], "n_obs"),
        aic=float(payload["aic"]),
    )
    numbers = np.concatenate((model.phi, model.theta, [model.intercept, model.sigma2, model.aic]))
    if not np.all(np.isfinite(numbers)):
        raise DataError("phi, theta, intercept, sigma2 and aic must be finite")
    return model
