import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketcast.errors import DataError
from marketcast.indicators import (
    TRADING_DAYS_PER_YEAR,
    derive_indicators,
    high_low_diff,
    rolling_volatility,
    rsi,
    sma,
)
from tests.test_frame import frame_of


# ---------------------------------------------------------------- sma


def sma_oracle(values, n):
    out = []
    for i in range(len(values)):
        if i + 1 < n:
            out.append(math.nan)
        else:
            out.append(sum(values[i + 1 - n : i + 1]) / n)
    return out


def test_sma_hand_example():
    got = sma([1.0, 2.0, 3.0, 4.0], 2)
    assert math.isnan(got[0])
    np.testing.assert_allclose(got[1:], [1.5, 2.5, 3.5], atol=1e-12)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=10),
)
def test_sma_matches_oracle(values, n):
    got = sma(values, n)
    want = sma_oracle(values, n)
    for g, w in zip(got, want):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert g == pytest.approx(w, abs=1e-6)


def test_sma_warmup_count():
    out = sma(np.arange(10.0), 4)
    assert np.isnan(out[:3]).all() and np.isfinite(out[3:]).all()


# ---------------------------------------------------------------- rsi


def rsi_oracle(values, n):
    # scalar re-derivation of Wilder smoothing
    deltas = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    out = [math.nan] * len(values)
    ag = sum(gains[:n]) / n
    al = sum(losses[:n]) / n

    def val(ag, al):
        if al == 0.0:
            return 50.0 if ag == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + ag / al)

    out[n] = val(ag, al)
    for t in range(n, len(deltas)):
        ag = (ag * (n - 1) + gains[t]) / n
        al = (al * (n - 1) + losses[t]) / n
        out[t + 1] = val(ag, al)
    return out


def test_rsi_matches_oracle(rng):
    prices = 100.0 + np.cumsum(rng.normal(size=80))
    got = rsi(prices, 14)
    want = rsi_oracle(prices.tolist(), 14)
    assert np.isnan(got[:14]).all()
    np.testing.assert_allclose(got[14:], want[14:], atol=1e-10)


def test_rsi_bounds(rng):
    prices = 50.0 + np.cumsum(rng.normal(size=200))
    prices = np.abs(prices) + 1.0
    out = rsi(prices, 14)
    finite = out[np.isfinite(out)]
    assert ((finite >= 0.0) & (finite <= 100.0)).all()


def test_rsi_monotone_series_saturates():
    up = np.arange(1.0, 40.0)
    out = rsi(up, 14)
    np.testing.assert_allclose(out[14:], 100.0, atol=1e-12)
    flat = np.full(30, 5.0)
    assert np.all(rsi(flat, 14)[14:] == 50.0)


def test_rsi_too_short():
    with pytest.raises(DataError):
        rsi(np.arange(10.0), 14)


# ---------------------------------------------------------------- volatility


def vol_oracle(values, n):
    rets = [math.log(values[i + 1] / values[i]) for i in range(len(values) - 1)]
    out = [math.nan] * len(values)
    for i in range(n, len(values)):
        window = rets[i - n : i]
        m = sum(window) / n
        var = sum((r - m) ** 2 for r in window) / (n - 1)
        out[i] = math.sqrt(var) * math.sqrt(TRADING_DAYS_PER_YEAR) * 100.0
    return out


def test_rolling_volatility_matches_oracle(rng):
    prices = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.01, size=70)))
    got = rolling_volatility(prices, 30)
    want = vol_oracle(prices.tolist(), 30)
    assert np.isnan(got[:30]).all()
    np.testing.assert_allclose(got[30:], want[30:], atol=1e-9)


def test_rolling_volatility_rejects_nonpositive():
    with pytest.raises(DataError):
        rolling_volatility(np.array([1.0, -2.0, 3.0]), 2)


def test_rolling_volatility_constant_prices_zero():
    out = rolling_volatility(np.full(40, 25.0), 30)
    np.testing.assert_allclose(out[30:], 0.0, atol=1e-12)


# ---------------------------------------------------------------- high/low


def test_high_low_diff():
    np.testing.assert_array_equal(
        high_low_diff([3.0, 5.0], [1.0, 5.0]), [2.0, 0.0]
    )
    with pytest.raises(DataError):
        high_low_diff([1.0], [2.0])
    with pytest.raises(DataError):
        high_low_diff([1.0, 2.0], [1.0])


# ---------------------------------------------------------------- derive


def test_derive_indicators_default_columns(rng):
    n = 260
    px = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.01, size=n)))
    f = frame_of(
        PX_LAST=px,
        PX_HIGH=px * 1.01,
        PX_LOW=px * 0.99,
    )
    out = derive_indicators(f)
    assert out.column_names == [
        "PX_LAST",
        "PX_HIGH",
        "PX_LOW",
        "MOV_AVG_50D",
        "MOV_AVG_200D",
        "RSI_14D",
        "VOLATILITY_30D",
        "PX_HIGH_LOW_DIFFERENCE",
    ]
    # the 200-day average drives the warmup length
    assert np.isnan(out.column("MOV_AVG_200D")[:199]).all()
    assert np.isfinite(out.column("MOV_AVG_200D")[199:]).all()


def test_derive_indicators_skips_missing_sources(rng):
    px = 100.0 + np.cumsum(rng.normal(size=260))
    f = frame_of(PX_LAST=np.abs(px) + 1.0)
    out = derive_indicators(f)
    assert "PX_HIGH_LOW_DIFFERENCE" not in out.column_names
    assert "MOV_AVG_50D" in out.column_names


def test_derive_indicators_keeps_existing_columns(rng):
    px = np.abs(100.0 + np.cumsum(rng.normal(size=260))) + 1.0
    sentinel = np.full(260, -1.0)
    f = frame_of(PX_LAST=px, RSI_14D=sentinel)
    out = derive_indicators(f)
    np.testing.assert_array_equal(out.column("RSI_14D"), sentinel)

