"""Technical indicators derived from raw OHLCV series.

Every indicator returns an array aligned index-for-index with its input;
warm-up positions that cannot be computed yet are NaN. Column names are
deterministic from the indicator kind and period (MOV_AVG_50D, RSI_14D,
VOLATILITY_30D, PX_HIGH_LOW_DIFFERENCE) so derived datasets match the naming
of vendor-sourced ones.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .frame import TimeSeriesFrame

TRADING_DAYS_PER_YEAR = 252

__all__ = [
    "sma",
    "rsi",
    "rolling_volatility",
    "high_low_diff",
    "derive_indicators",
]


def sma(series, n: int) -> np.ndarray:
    """Simple moving average of the n most recent values; first n-1 are NaN."""
    if n < 1:
        raise ValueError("sma period must be >= 1")
    series = np.asarray(series, dtype=float)
    out = np.full(len(series), np.nan)
    if len(series) >= n:
        kernel = np.ones(n) / n
        out[n - 1 :] = np.convolve(series, kernel, mode="valid")
    return out


def rsi(series, n: int = 14) -> np.ndarray:
    """Wilder's relative strength index.

    The first n changes seed the average gain/loss with a simple mean; later
    averages are smoothed with factor (n-1)/n. By convention RSI is 100 when
    the average loss is zero with positive gains, and 50 when both averages
    are zero. Positions 0..n-1 are NaN.
    """
    series = np.asarray(series, dtype=float)
    if n < 1:
        raise ValueError("rsi period must be >= 1")
    if len(series) <= n:
        raise DataError(f"rsi needs more than {n} prices, got {len(series)}")
    delta = np.diff(series)
    gains = np.clip(delta, 0.0, None)
    losses = np.clip(-delta, 0.0, None)
    out = np.full(len(series), np.nan)
    avg_gain = gains[:n].mean()
    avg_loss = losses[:n].mean()
    out[n] = _rsi_value(avg_gain, avg_loss)
    for t in range(n, len(delta)):
        avg_gain = (avg_gain * (n - 1) + gains[t]) / n
        avg_loss = (avg_loss * (n - 1) + losses[t]) / n
        out[t + 1] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 50.0 if avg_gain == 0.0 else 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def rolling_volatility(series, n: int = 30) -> np.ndarray:
    """Annualized percent volatility of daily log returns.

    Sample standard deviation over the trailing n returns, scaled by
    sqrt(252) and expressed in percent. Defined from index n onward.
    """
    if n < 2:
        raise ValueError("rolling_volatility period must be >= 2")
    series = np.asarray(series, dtype=float)
    if np.any(series <= 0):
        bad = int(np.argmax(series <= 0))
        raise DataError(f"non-positive price at index {bad}")
    returns = np.diff(np.log(series))
    out = np.full(len(series), np.nan)
    if len(returns) >= n:
        windows = np.lib.stride_tricks.sliding_window_view(returns, n)
        out[n:] = windows.std(axis=1, ddof=1) * np.sqrt(TRADING_DAYS_PER_YEAR) * 100.0
    return out


def high_low_diff(high, low) -> np.ndarray:
    """Elementwise daily trading range high - low."""
    high = np.asarray(high, dtype=float)
    low = np.asarray(low, dtype=float)
    if high.shape != low.shape:
        raise DataError("high and low series have different lengths")
    below = high < low
    if below.any():
        raise DataError(f"high below low at index {int(np.argmax(below))}")
    return high - low


def derive_indicators(frame: TimeSeriesFrame, price_column: str = "PX_LAST") -> TimeSeriesFrame:
    """Append the five indicator columns that are absent and whose sources exist.

    MOV_AVG_50D, MOV_AVG_200D, RSI_14D and VOLATILITY_30D read `price_column`;
    PX_HIGH_LOW_DIFFERENCE needs PX_HIGH and PX_LOW. A column whose sources
    are missing is skipped so the pipeline runs on price-only datasets.
    """
    new: dict[str, np.ndarray] = {}
    if price_column in frame.columns:
        prices = frame.column(price_column)
        for name, indicator, period in (
            ("MOV_AVG_50D", sma, 50),
            ("MOV_AVG_200D", sma, 200),
            ("RSI_14D", rsi, 14),
            ("VOLATILITY_30D", rolling_volatility, 30),
        ):
            if name not in frame.columns:
                new[name] = indicator(prices, period)
    if "PX_HIGH_LOW_DIFFERENCE" not in frame.columns and {"PX_HIGH", "PX_LOW"} <= frame.columns.keys():
        new["PX_HIGH_LOW_DIFFERENCE"] = high_low_diff(frame.column("PX_HIGH"), frame.column("PX_LOW"))
    return frame.with_columns(new) if new else frame
