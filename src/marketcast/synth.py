"""Synthetic daily price data generator.

Produces a geometric random walk with drift for the close, consistent
open/high/low bars, volume, one strongly price-correlated auxiliary series,
one uncorrelated noise series, and a monthly macro series that is only
observed on the first trading day of each month (so ingestion has real gaps
to forward-fill). A regime break can flip the drift and volatility partway
through the sample, which is what makes fixed-origin forecasts degrade in
the later test period while one-step models keep tracking.

Generative parameters, in daily terms (annual figures divided by 252 trading
days): log-return mean mu/252 - vol^2/(2*252), log-return stdev vol/sqrt(252).
All randomness comes from one seeded generator drawn in a fixed order, so a
given (seed, n_days, regimes) is byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date, timedelta

import numpy as np

from .frame import TimeSeriesFrame, write_csv as _write_frame_csv
from .indicators import TRADING_DAYS_PER_YEAR

__all__ = ["RegimeSpec", "generate", "write_csv", "COLUMN_FORMATS"]

START_DATE = date(2013, 10, 1)

COLUMN_FORMATS = {
    "PX_OPEN": "{:.4f}",
    "PX_HIGH": "{:.4f}",
    "PX_LOW": "{:.4f}",
    "PX_LAST": "{:.4f}",
    "PX_VOLUME": "{:.0f}",
    "INDEX_FUT": "{:.4f}",
    "MACRO_RATE": "{:.4f}",
    "NOISE_SIGNAL": "{:.4f}",
}


@dataclass(frozen=True)
class RegimeSpec:
    """Drift/volatility regimes for the close, annualized.

    The break applies from row floor(break_fraction * n_days) onward; a
    break_fraction of 1.0 means a single regime.
    """

    break_fraction: float = 0.9
    drift_before: float = 0.08
    vol_before: float = 0.15
    drift_after: float = -0.25
    vol_after: float = 0.35
    start_price: float = 1700.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 < self.break_fraction <= 1.0:
            raise ValueError("break_fraction must be in (0, 1]")
        if self.vol_before < 0 or self.vol_after < 0:
            raise ValueError("volatilities must be non-negative")
        if self.start_price <= 0:
            raise ValueError("start_price must be positive")


def _trading_days(n: int) -> list[date]:
    days = []
    d = START_DATE
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def generate(seed: int, n_days: int, regimes: RegimeSpec = RegimeSpec()) -> TimeSeriesFrame:
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    dates = _trading_days(n_days)
    break_row = int(math.floor(regimes.break_fraction * n_days))

    mu = np.where(np.arange(n_days) < break_row, regimes.drift_before, regimes.drift_after)
    vol = np.where(np.arange(n_days) < break_row, regimes.vol_before, regimes.vol_after)
    mu_d = mu / TRADING_DAYS_PER_YEAR
    sig_d = vol / math.sqrt(TRADING_DAYS_PER_YEAR)

    # fixed draw order keeps output deterministic per seed
    z_close = rng.standard_normal(n_days)
    z_open = rng.standard_normal(n_days)
    z_high = rng.standard_normal(n_days)
    z_low = rng.standard_normal(n_days)
    z_vol = rng.standard_normal(n_days)
    z_fut = rng.standard_normal(n_days)
    z_noise = rng.standard_normal(n_days)
    n_months = sum(
        1 for i, d in enumerate(dates) if i == 0 or (d.year, d.month) != (dates[i - 1].year, dates[i - 1].month)
    )
    z_macro = rng.standard_normal(n_months)

    log_ret = mu_d - 0.5 * sig_d**2 + sig_d * z_close
    log_ret[0] = 0.0
    close = regimes.start_price * np.exp(np.cumsum(log_ret))

    prev_close = np.concatenate(([regimes.start_price], close[:-1]))
    open_ = prev_close * np.exp(0.2 * sig_d * z_open)
    high = np.maximum(open_, close) * np.exp(np.abs(0.4 * sig_d * z_high))
    low = np.minimum(open_, close) * np.exp(-np.abs(0.4 * sig_d * z_low))
    volume = 4.0e9 * np.exp(0.25 * z_vol)
    index_fut = 0.25 * close * np.exp(0.002 * z_fut)
    noise_signal = 50.0 + 5.0 * z_noise

    macro = np.full(n_days, np.nan)
    level = 2.5
    month_idx = 0
    for i, d in enumerate(dates):
        if i == 0 or (d.year, d.month) != (dates[i - 1].year, dates[i - 1].month):
            level = max(0.05, level + 0.08 * z_macro[month_idx])
            month_idx += 1
            macro[i] = level

    return TimeSeriesFrame(
        dates=tuple(dates),
        columns={
            "PX_OPEN": open_,
            "PX_HIGH": high,
            "PX_LOW": low,
            "PX_LAST": close,
            "PX_VOLUME": volume,
            "INDEX_FUT": index_fut,
            "MACRO_RATE": macro,
            "NOISE_SIGNAL": noise_signal,
        },
    )


def write_csv(frame: TimeSeriesFrame, path, formats: dict[str, str] | None = None) -> None:
    """Write a frame as CSV with DATE first, using the price-data formats."""
    fmts = dict(COLUMN_FORMATS)
    if formats:
        fmts.update(formats)
    _write_frame_csv(frame, path, formats=fmts)
