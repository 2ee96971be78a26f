import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketcast import arima
from marketcast.arima import (
    ArimaModel,
    ArimaOrder,
    ForecastMode,
    _check_stationarity,
    aic,
    auto_arima,
    difference,
    fit_arma,
    forecast,
    model_from_dict,
    model_to_dict,
    undifference,
)
from marketcast.errors import DataError, ModelFitError, NonConvergenceError, NonStationaryError


def make_model(p, d, q, phi=(), theta=(), intercept=0.0):
    return ArimaModel(
        order=ArimaOrder(p, d, q),
        phi=np.asarray(phi, float),
        theta=np.asarray(theta, float),
        intercept=intercept,
        sigma2=1.0,
        n_obs=100,
        aic=0.0,
    )


def css_innovations_oracle(w, c, phi, theta):
    # scalar re-derivation of the CSS innovation recursion
    p, q = len(phi), len(theta)
    eps = []
    for t in range(p, len(w)):
        pred = c
        for i in range(1, p + 1):
            pred += phi[i - 1] * w[t - i]
        for j in range(1, q + 1):
            k = t - p - j
            if k >= 0:
                pred += theta[j - 1] * eps[k]
        eps.append(w[t] - pred)
    return eps


def simulate_ar1(phi, n, seed, burn=500, c=0.0):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + burn)
    y = np.empty(n + burn)
    y[0] = e[0]
    for t in range(1, n + burn):
        y[t] = c + phi * y[t - 1] + e[t]
    return y[burn:]


# ---------------------------------------------------------------- differencing


def test_difference_identity_and_orders():
    y = np.array([1.0, 4.0, 9.0, 16.0])
    np.testing.assert_array_equal(difference(y, 0), y)
    np.testing.assert_array_equal(difference(y, 1), [3.0, 5.0, 7.0])
    np.testing.assert_array_equal(difference(y, 2), [2.0, 2.0])


def test_undifference_hand_example():
    # cumulative reconstruction against the anchor value 1
    out = undifference(np.array([2.0, 3.0, 4.0]), np.array([1.0]), 1)
    np.testing.assert_array_equal(out, [3.0, 6.0, 10.0])


def test_undifference_identity():
    y = np.array([5.0, 6.0])
    np.testing.assert_array_equal(undifference(y, np.array([]), 0), y)


@given(
    st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=4, max_size=60),
    st.integers(min_value=0, max_value=2),
)
def test_difference_round_trip(vals, d):
    y = np.asarray(vals)
    w = difference(y, d)
    # anchors are the d values immediately before the reconstructed span, so
    # undifferencing with the series head recovers the tail
    back = undifference(w, y[:d], d)
    np.testing.assert_allclose(back, y[d:], atol=1e-9 * max(1.0, np.abs(y).max()))


# ---------------------------------------------------------------- aic


def test_aic_examples():
    assert aic(sse=100.0, n=100, k=3) == pytest.approx(6.0, abs=1e-12)
    base = aic(sse=50.0, n=80, k=2)
    assert aic(sse=50.0, n=80, k=4) == pytest.approx(base + 4.0, abs=1e-12)
    assert aic(sse=200.0, n=100, k=2) == pytest.approx(100.0 * math.log(2.0) + 4.0, abs=1e-10)


# ---------------------------------------------------------------- fit_arma


def test_fit_white_noise_closed_form(rng):
    y = 3.0 + rng.standard_normal(400)
    m = fit_arma(y, 0, 0)
    assert m.intercept == pytest.approx(y.mean(), abs=1e-12)
    assert m.sigma2 == pytest.approx(y.var(), rel=1e-9)
    assert m.order == ArimaOrder(0, 0, 0)
    assert math.isfinite(m.aic)


def test_fit_ar1_recovery():
    y = simulate_ar1(0.7, 5000, seed=42)
    m = fit_arma(y, 1, 0)
    assert abs(m.phi[0] - 0.7) <= 0.05
    assert abs(m.sigma2 - 1.0) <= 0.1


def test_fit_ma1_recovery():
    rng = np.random.default_rng(11)
    e = rng.standard_normal(3001)
    y = 0.3 + e[1:] + 0.5 * e[:-1]
    m = fit_arma(y, 0, 1)
    assert abs(m.theta[0] - 0.5) <= 0.05


def test_fit_arma11_recovery():
    rng = np.random.default_rng(12)
    e = rng.standard_normal(4000)
    y = np.zeros(4000)
    for t in range(1, 4000):
        y[t] = 0.6 * y[t - 1] + e[t] + 0.3 * e[t - 1]
    m = fit_arma(y[500:], 1, 1)
    assert abs(m.phi[0] - 0.6) <= 0.07
    assert abs(m.theta[0] - 0.3) <= 0.07


def test_fit_constant_series_rejected():
    with pytest.raises(ModelFitError):
        fit_arma(np.full(100, 2.5), 1, 0)


def test_fit_short_series_rejected():
    with pytest.raises((ModelFitError, DataError)):
        fit_arma(np.arange(12.0), 2, 2)  # needs 10 * (2+2+1) = 50


def test_stationarity_guard():
    with pytest.raises(NonStationaryError):
        _check_stationarity(np.array([1.0]))  # unit root exactly
    with pytest.warns(UserWarning):
        _check_stationarity(np.array([0.995]))  # root 1.005, warn band
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_stationarity(np.array([0.5]))  # comfortably stationary


def golden_arma11_series():
    # ARMA(1,1) with intercept 0.4, phi 0.5, theta 0.3; fixed generator and loop
    e = np.random.default_rng(2024).standard_normal(701)
    y = np.empty(700)
    prev = 0.0
    for t in range(700):
        prev = 0.4 + 0.5 * prev + e[t + 1] + 0.3 * e[t]
        y[t] = prev
    return y


# float.hex of (intercept, phi, theta, sigma2, aic) per (p, q); any change in
# the order of the objective's floating-point operations shows up here as a
# different bit pattern
GOLDEN_FITS = {
    (1, 0): ("0x1.0dac2862393a5p-2", ["0x1.53d96812f5baap-1"], [],
             "0x1.134c06df22fc7p+0", "0x1.b6632cad5ba77p+5"),
    (3, 0): ("0x1.15bfa46b21260p-2",
             ["0x1.a6d03671e4544p-1", "-0x1.412974a54598dp-2", "0x1.22308fb5dc657p-3"], [],
             "0x1.0294c100d5916p+0", "0x1.dfbfe94602af4p+3"),
    (0, 1): ("0x1.9590b7bcd1e41p-1", [], ["0x1.560c004e37864p-1"],
             "0x1.1ff34a0f503c8p+0", "0x1.594f4b03355a7p+6"),
    (0, 3): ("0x1.96f06d498b106p-1", [],
             ["0x1.a9833a9eff088p-1", "0x1.5613fbd72a410p-2", "0x1.afae2f450d282p-4"],
             "0x1.06709b5d8b8ffp+0", "0x1.96424932604ddp+4"),
    (1, 1): ("0x1.b33b512ef7ae6p-2", ["0x1.d8be4415251e8p-2"], ["0x1.847f2646f43bfp-2"],
             "0x1.0410a076ebbbfp+0", "0x1.103137cea53cep+4"),
    (2, 3): ("0x1.6a6a60e91b79ap-2", ["0x1.aab677b255a49p-2", "0x1.0b06011ef5c28p-3"],
             ["0x1.aa440d9617da2p-2", "-0x1.b47669bdad13ap-4", "-0x1.e6c65864e3f36p-5"],
             "0x1.02746b0c71908p+0", "0x1.2a942346900dcp+4"),
}


@pytest.mark.parametrize("order", sorted(GOLDEN_FITS))
def test_fit_arma_golden_bits(order):
    m = fit_arma(golden_arma11_series(), *order)
    got = (
        m.intercept.hex(),
        [float(v).hex() for v in m.phi],
        [float(v).hex() for v in m.theta],
        m.sigma2.hex(),
        m.aic.hex(),
    )
    assert got == GOLDEN_FITS[order]


def test_fit_arma_exhausted_budget_raises_nonconvergence():
    # over-parameterized ARMA(2,2) on white noise wanders along a ridge of
    # near-canceling roots until Nelder-Mead runs out of evaluations
    y = np.random.default_rng(0).standard_normal(300)
    p, q = 2, 2
    k = p + q + 1
    with pytest.raises(NonConvergenceError) as info:
        fit_arma(y, p, q)
    best = info.value.best
    assert best["nfev"] == 400 * (k + 1)
    assert len(best["params"]) == k
    assert all(math.isfinite(v) for v in best["params"])
    assert best["objective"].hex() == "-0x1.1cf5b6077982fp-4"
    assert best["params"][0].hex() == "-0x1.0d60b5bf2267ap-4"


# ---------------------------------------------------------------- auto_arima


def test_auto_arima_grid_min_property():
    y = simulate_ar1(0.5, 1200, seed=9)
    sel = auto_arima(y, bounds=(2, 0, 0))
    # pure-AR grid at d=0: no selection filters bind, so the winner must be
    # the plain AIC minimum over the grid
    grid = [fit_arma(y, p, 0).aic for p in range(3)]
    assert sel.aic == pytest.approx(min(grid), abs=1e-9)


def test_auto_arima_random_walk_prefers_d1():
    hits = 0
    for seed in range(5):
        y = np.cumsum(np.random.default_rng(100 + seed).standard_normal(2000))
        m = auto_arima(y, bounds=(1, 2, 1))
        hits += m.order.d == 1
    assert hits >= 4


def test_auto_arima_white_noise_stays_small():
    low = 0
    for seed in range(20):
        y = np.random.default_rng(300 + seed).standard_normal(2000)
        m = auto_arima(y, bounds=(2, 1, 2))
        low += (m.order.p + m.order.q) <= 1
    assert low >= 16


def test_auto_arima_near_oracle_sse():
    for seed in (500, 501, 502):
        y = simulate_ar1(0.7, 2000, seed=seed)
        sel = auto_arima(y, bounds=(2, 1, 2))
        oracle = fit_arma(y, 1, 0)
        assert sel.sigma2 * sel.n_obs <= 1.05 * oracle.sigma2 * oracle.n_obs


def test_auto_arima_silences_only_root_warnings(monkeypatch):
    fit = arima.fit_arma

    def warning_fit(w, p, q):
        warnings.warn("overflow in a candidate", RuntimeWarning)
        return fit(w, p, q)

    monkeypatch.setattr(arima, "fit_arma", warning_fit)
    with pytest.warns(RuntimeWarning, match="overflow in a candidate"):
        auto_arima(simulate_ar1(0.5, 300, seed=9), bounds=(1, 0, 0))


def test_auto_arima_all_candidates_fail():
    with pytest.raises(ModelFitError, match=r"first failure: \(0,0,0\): need at least 10 observations"):
        auto_arima(np.arange(5.0), bounds=(3, 1, 3))
    # bounds past what the series can fit or difference name the same failure
    with pytest.raises(ModelFitError, match=r"first failure: \(0,0,0\): need at least 10 observations"):
        auto_arima(np.arange(5.0), bounds=(60, 60, 60))


def test_auto_arima_reaches_only_candidates_that_can_fit(monkeypatch):
    fit = arima.fit_arma
    calls = []

    def counting_fit(w, p, q):
        calls.append((len(w), p, q))
        return fit(w, p, q)

    y = np.cumsum(np.random.default_rng(7).standard_normal(45))
    want = auto_arima(y, bounds=(3, 1, 3))
    monkeypatch.setattr(arima, "fit_arma", counting_fit)
    got = auto_arima(y, bounds=(60, 1, 60))
    # fit_arma needs 10 (p + q + 1) points: p + q <= 3 at d = 0 (45) and d = 1 (44)
    feasible = [(45 - d, p, q) for d in (0, 1) for p in range(4) for q in range(4 - p)]
    assert calls == feasible
    assert got.order == want.order
    assert model_to_dict(got) == model_to_dict(want)


# ---------------------------------------------------------------- forecast


def test_static_random_walk_flat():
    m = make_model(0, 1, 0)
    x = np.array([3.0, 7.0, 4.0])
    out = forecast(m, x, 5, ForecastMode.STATIC)
    np.testing.assert_array_equal(out, np.full(5, 4.0))


def test_static_drift_line():
    m = make_model(0, 1, 0, intercept=0.5)
    x = np.array([1.0, 2.0, 10.0])
    out = forecast(m, x, 4, ForecastMode.STATIC)
    np.testing.assert_allclose(out, [10.5, 11.0, 11.5, 12.0], atol=1e-12)


def test_static_ar1_halving():
    m = make_model(1, 0, 0, phi=[0.5])
    x = np.array([1.0, -2.0, 8.0])
    out = forecast(m, x, 3, ForecastMode.STATIC)
    np.testing.assert_allclose(out, [4.0, 2.0, 1.0], atol=1e-12)


def test_static_ma1_matches_oracle(rng):
    m = make_model(0, 0, 1, theta=[0.7], intercept=0.2)
    x = rng.standard_normal(30)
    eps = css_innovations_oracle(x, 0.2, [], [0.7])
    want = [0.2 + 0.7 * eps[-1], 0.2, 0.2]
    np.testing.assert_allclose(forecast(m, x, 3, ForecastMode.STATIC), want, atol=1e-12)


def test_rolling_matches_scalar_oracle(rng):
    x = np.cumsum(rng.standard_normal(60)) + 50.0
    n = len(x)
    steps = 7
    # x_t less its d-th difference: what the d previous observations add back
    carry = {0: lambda t: 0.0, 1: lambda t: x[t - 1], 2: lambda t: 2 * x[t - 1] - x[t - 2]}
    for d in (0, 1, 2):
        m = make_model(1, d, 1, phi=[0.4], theta=[0.25], intercept=0.05)
        got = forecast(m, x, steps, ForecastMode.ROLLING)
        w = np.diff(x, n=d)
        eps = css_innovations_oracle(w, 0.05, [0.4], [0.25])
        # w_hat_t = w_t - eps_t, rebuilt on the original scale
        want = [carry[d](t) + (w[t - d] - eps[t - d - 1]) for t in range(n - steps, n)]
        np.testing.assert_allclose(got, want, atol=1e-12, err_msg=f"d={d}")


def test_rolling_reanchors_on_truth():
    # a rolling (0,1,0) forecast is yesterday's actual value
    m = make_model(0, 1, 0)
    x = np.array([5.0, 9.0, 2.0, 7.0, 6.0])
    out = forecast(m, x, 3, ForecastMode.ROLLING)
    np.testing.assert_array_equal(out, [9.0, 2.0, 7.0])


def test_forecast_insufficient_history():
    m = make_model(2, 1, 0, phi=[0.1, 0.1])
    with pytest.raises(DataError):
        forecast(m, np.array([1.0, 2.0]), 3, ForecastMode.STATIC)
    with pytest.raises(DataError):
        forecast(m, np.arange(6.0), 5, ForecastMode.ROLLING)
    with pytest.raises(ValueError):
        forecast(m, np.arange(30.0), 0, ForecastMode.STATIC)


def test_static_converges_to_drift_line():
    # far beyond the lag reach, consecutive increments approach the implied drift
    y = simulate_ar1(0.6, 800, seed=3, c=0.1)
    m = fit_arma(np.diff(y), 1, 0)
    m = ArimaModel(
        order=ArimaOrder(1, 1, 0),
        phi=m.phi,
        theta=m.theta,
        intercept=m.intercept,
        sigma2=m.sigma2,
        n_obs=m.n_obs,
        aic=m.aic,
    )
    out = forecast(m, y, 200, ForecastMode.STATIC)
    drift = m.intercept / (1.0 - m.phi[0])
    assert out[-1] - out[-2] == pytest.approx(drift, abs=1e-6)


# ---------------------------------------------------------------- serialization


def test_model_dict_round_trip():
    m = make_model(2, 1, 1, phi=[0.3, -0.2], theta=[0.4], intercept=1.5)
    d = model_to_dict(m)
    again = model_from_dict(d)
    assert again.order == m.order
    np.testing.assert_array_equal(again.phi, m.phi)
    np.testing.assert_array_equal(again.theta, m.theta)
    assert again.intercept == m.intercept
    assert again.sigma2 == m.sigma2
