"""Forecast evaluation: MAE, RMSE, accuracy, and the half-period breakdown.

All metrics are computed in original price units; callers must inverse-scale
model output first.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError

__all__ = ["ForecastReport", "mae", "rmse", "accuracy", "report", "format_report"]


def _check_pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape:
        raise DataError(
            f"actual and predicted lengths differ: {actual.shape} vs {predicted.shape}"
        )
    if actual.size == 0:
        raise DataError("cannot score an empty forecast")
    return actual, predicted


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    actual, predicted = _check_pair(actual, predicted)
    return float(np.mean(np.abs(actual - predicted)))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    actual, predicted = _check_pair(actual, predicted)
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def accuracy(mae_value: float, actual_mean: float) -> float:
    """Percent accuracy: 100 - (MAE / mean of actuals * 100).

    Unclamped; can be negative for forecasts worse than the actual mean.
    A zero mean leaves the formula undefined and raises DataError.
    """
    if actual_mean == 0.0:
        raise DataError("accuracy is undefined when the actual mean is zero")
    return 100.0 - (mae_value / actual_mean) * 100.0


@dataclass(frozen=True)
class ForecastReport:
    """Summary metrics of a forecast scored against its actuals.

    Halves split at floor(n/2); at odd lengths the extra point goes to the
    second half. Each half scores against its own actual mean.
    """

    dates: tuple[date, ...]
    n_points: int
    mae: float
    rmse: float
    accuracy_pct: float
    accuracy_first_half_pct: float
    accuracy_second_half_pct: float


def report(dates, actual, predicted) -> ForecastReport:
    """Full evaluation of a forecast against its actuals."""
    actual, predicted = _check_pair(actual, predicted)
    dates = tuple(dates)
    if len(dates) != actual.size:
        raise DataError("dates and series lengths differ")
    if actual.size < 2:
        raise DataError("need at least 2 points for the half-period breakdown")
    mid = actual.size // 2
    mae_all = mae(actual, predicted)
    return ForecastReport(
        dates=dates,
        n_points=actual.size,
        mae=mae_all,
        rmse=rmse(actual, predicted),
        accuracy_pct=accuracy(mae_all, float(actual.mean())),
        accuracy_first_half_pct=accuracy(
            mae(actual[:mid], predicted[:mid]), float(actual[:mid].mean())
        ),
        accuracy_second_half_pct=accuracy(
            mae(actual[mid:], predicted[mid:]), float(actual[mid:].mean())
        ),
    )


def format_report(rep: ForecastReport) -> str:
    """Key-value text document for a report, stable across reruns."""
    lines = [
        f"mae = {rep.mae:.6f}",
        f"rmse = {rep.rmse:.6f}",
        f"accuracy_pct = {rep.accuracy_pct:.6f}",
        f"accuracy_first_half_pct = {rep.accuracy_first_half_pct:.6f}",
        f"accuracy_second_half_pct = {rep.accuracy_second_half_pct:.6f}",
        f"n_points = {rep.n_points}",
        f"date_range = {rep.dates[0].isoformat()}..{rep.dates[-1].isoformat()}",
    ]
    return "\n".join(lines) + "\n"
