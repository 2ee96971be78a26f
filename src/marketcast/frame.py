"""Date-indexed numeric frames and the preprocessing stages of the pipeline.

A :class:`TimeSeriesFrame` is a small immutable table: strictly increasing
calendar dates plus named float columns, with NaN marking missing cells.
The functions here cover CSV ingestion, forward filling, chronological
splitting, min-max scaling, correlation-based feature selection, and
sliding-window construction. All operations are pure: they return new
frames and never mutate their inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "TimeSeriesFrame",
    "ScalerParams",
    "SplitSpec",
    "WindowedDataset",
    "load_csv",
    "write_csv",
    "forward_fill",
    "chrono_split",
    "split_bounds",
    "fit_scaler",
    "apply_scaler",
    "invert_scaler",
    "correlation_vector",
    "select_features",
    "make_windows",
]


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Ordered dates plus named numeric columns; NaN cells are missing values."""

    dates: tuple[date, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(
            self, "columns", {name: _freeze(vals) for name, vals in self.columns.items()}
        )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataError(f"dates not strictly increasing at {cur}")
        n = len(self.dates)
        for name, vals in self.columns.items():
            if vals.ndim != 1 or len(vals) != n:
                raise DataError(f"column {name!r} has {vals.size} values for {n} dates")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"no column named {name!r}")
        return self.columns[name]

    def rows(self, start: int, stop: int) -> "TimeSeriesFrame":
        """Contiguous row slice [start, stop) as a new frame."""
        return TimeSeriesFrame(
            dates=self.dates[start:stop],
            columns={name: vals[start:stop] for name, vals in self.columns.items()},
        )

    def restrict(self, names) -> "TimeSeriesFrame":
        """Keep only the given columns, in the given order."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise DataError(f"no column named {missing[0]!r}")
        return TimeSeriesFrame(
            dates=self.dates, columns={n: self.columns[n] for n in names}
        )

    def with_columns(self, new: dict[str, np.ndarray]) -> "TimeSeriesFrame":
        """Add or replace columns."""
        merged = dict(self.columns)
        merged.update(new)
        return TimeSeriesFrame(dates=self.dates, columns=merged)


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max, fitted on training rows only."""

    mins: dict[str, float]
    maxs: dict[str, float]

    def __post_init__(self):
        for name in self.mins:
            if self.mins[name] > self.maxs[name]:
                raise DataError(f"scaler min > max for column {name!r}")

    def to_dict(self) -> dict:
        return {name: [self.mins[name], self.maxs[name]] for name in self.mins}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(
            mins={name: float(lo) for name, (lo, hi) in d.items()},
            maxs={name: float(hi) for name, (lo, hi) in d.items()},
        )


@dataclass(frozen=True)
class SplitSpec:
    """Ordered chronological split fractions, summing to 1."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if not all(math.isfinite(f) and f >= 0 for f in self.fractions):
            raise DataError(f"split fractions must be finite and non-negative, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DataError(f"split fractions sum to {sum(self.fractions)}, expected 1")


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised sliding-window view of a series.

    ``inputs`` has shape (count, window_size, n_features); ``targets`` holds the
    value ``horizon`` steps after the end of each window.
    """

    inputs: np.ndarray
    targets: np.ndarray
    window_size: int
    horizon: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets disagree on window count")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, index) -> "WindowedDataset":
        return WindowedDataset(
            inputs=self.inputs[index],
            targets=self.targets[index],
            window_size=self.window_size,
            horizon=self.horizon,
        )


def _parse_date(text: str, where: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text).date()
    except ValueError as exc:
        raise DataError(f"{where}: unparseable date {text!r}") from exc


def load_csv(path, date_column: str = "DATE") -> TimeSeriesFrame:
    """Load a header-ed CSV into a frame, sorting rows by date.

    Non-date columns are parsed as floats; unparseable or empty cells (and a
    literal "nan") become missing (NaN). Raises DataError on a missing file,
    a missing date column, zero data rows, or a row that is too short to hold
    its date, has more cells than the header, has an unparseable date or an
    infinite value, or repeats an earlier row's date; the row errors name
    the row's 1-based line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if date_column not in header:
            raise DataError(f"date column {date_column!r} not in header {header}")
        date_idx = header.index(date_column)
        value_names = [h for i, h in enumerate(header) if i != date_idx]
        records = []
        for row in reader:
            if not row or all(cell.strip() == "" for cell in row):
                continue
            line = reader.line_num
            if date_idx >= len(row):
                raise DataError(
                    f"{path}: line {line} has {len(row)} cells, "
                    f"too few to reach the {date_column!r} column"
                )
            if len(row) > len(header):
                raise DataError(
                    f"{path}: line {line} has {len(row)} cells, more than the {len(header)} in the header"
                )
            when = _parse_date(row[date_idx].strip(), f"{path}: line {line}")
            values = []
            for i, name in enumerate(header):
                if i == date_idx:
                    continue
                cell = row[i].strip() if i < len(row) else ""
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if math.isinf(value):
                    raise DataError(f"{path}: line {line}, column {name!r}: infinite value {cell!r}")
                values.append(value)
            records.append((when, values, line))
    if not records:
        raise DataError(f"{path} has zero data rows")
    records.sort(key=lambda rec: rec[0])
    for (d1, _, line1), (d2, _, line2) in zip(records, records[1:]):
        if d1 == d2:
            raise DataError(f"{path}: duplicate date {d1} on lines {line1} and {line2}")
    dates = tuple(rec[0] for rec in records)
    table = np.array([rec[1] for rec in records], dtype=float)
    columns = {name: table[:, j] for j, name in enumerate(value_names)}
    return TimeSeriesFrame(dates=dates, columns=columns)


def write_csv(frame: TimeSeriesFrame, path, formats: dict[str, str] | None = None, date_column: str = "DATE") -> None:
    """Write a frame as CSV with the date column first.

    NaN cells become empty strings; `formats` maps column name to a
    str.format template (default "{:.6f}"). Output uses \\n line endings so
    identical frames serialize byte-identically on any platform.
    """
    formats = formats or {}
    names = frame.column_names
    lines = [date_column + "," + ",".join(names)]
    for i, d in enumerate(frame.dates):
        cells = [d.isoformat()]
        for name in names:
            v = frame.columns[name][i]
            cells.append("" if not np.isfinite(v) else formats.get(name, "{:.6f}").format(v))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ffill_column(values: np.ndarray) -> np.ndarray:
    # carry the index of the last finite observation forward; leading NaNs keep
    # index 0, which is itself NaN in that case
    idx = np.where(np.isfinite(values), np.arange(len(values)), 0)
    np.maximum.accumulate(idx, out=idx)
    return values[idx]


def forward_fill(frame: TimeSeriesFrame) -> TimeSeriesFrame:
    """Replace each missing value with the most recent prior value in its column.

    Rows for which some column has no prior observation at all (leading gaps)
    are dropped. A column with no observations anywhere raises DataError.
    """
    if len(frame) == 0:
        raise DataError("cannot forward-fill an empty frame")
    filled = {}
    lead = 0
    for name, vals in frame.columns.items():
        finite = np.isfinite(vals)
        if not finite.any():
            raise DataError(f"column {name!r} has no observed values")
        first = int(np.argmax(finite))
        lead = max(lead, first)
        filled[name] = _ffill_column(vals)
    return TimeSeriesFrame(
        dates=frame.dates[lead:],
        columns={name: vals[lead:] for name, vals in filled.items()},
    )


def chrono_split(frame: TimeSeriesFrame, spec: SplitSpec) -> list[TimeSeriesFrame]:
    """Partition a frame into contiguous chronological parts.

    The k-th boundary sits at floor(cumulative_fraction_k * length); remainder
    rows accrue to the final part.
    """
    n = len(frame)
    k = len(spec.fractions)
    if n < k:
        raise DataError(f"frame of {n} rows cannot be split {k} ways")
    bounds = split_bounds(n, spec)
    return [frame.rows(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def split_bounds(n: int, spec: SplitSpec) -> list[int]:
    """Boundary indices (len(fractions)+1 values) used by chrono_split."""
    bounds = [0]
    cum = 0.0
    for frac in spec.fractions[:-1]:
        cum += frac
        bounds.append(int(math.floor(cum * n)))
    bounds.append(n)
    return bounds


def fit_scaler(frame: TimeSeriesFrame) -> ScalerParams:
    """Per-column min/max over the supplied (training) rows."""
    if len(frame) == 0:
        raise DataError("cannot fit a scaler on an empty frame")
    mins, maxs = {}, {}
    for name, vals in frame.columns.items():
        if not np.isfinite(vals).all():
            raise DataError(f"column {name!r} has missing values; forward-fill first")
        mins[name] = float(vals.min())
        maxs[name] = float(vals.max())
    return ScalerParams(mins=mins, maxs=maxs)


def apply_scaler(frame: TimeSeriesFrame, params: ScalerParams) -> TimeSeriesFrame:
    """Map each column through (x - min) / (max - min).

    Constant columns map to 0. Values outside the fitted range are allowed to
    land outside [0, 1].
    """
    scaled = {}
    for name, vals in frame.columns.items():
        if name not in params.mins:
            raise DataError(f"scaler has no parameters for column {name!r}")
        lo, hi = params.mins[name], params.maxs[name]
        if hi > lo:
            scaled[name] = (vals - lo) / (hi - lo)
        else:
            scaled[name] = np.zeros_like(vals)
    return TimeSeriesFrame(dates=frame.dates, columns=scaled)


def invert_scaler(series, column: str, params: ScalerParams) -> np.ndarray:
    """Exact inverse of apply_scaler for one column."""
    if column not in params.mins:
        raise DataError(f"scaler has no parameters for column {column!r}")
    lo, hi = params.mins[column], params.maxs[column]
    series = np.asarray(series, dtype=float)
    if hi > lo:
        return series * (hi - lo) + lo
    return np.full_like(series, lo)


def correlation_vector(frame: TimeSeriesFrame, target: str) -> dict[str, float]:
    """Pearson correlation of every non-target column with the target.

    Zero-variance columns (either side) are reported as NaN and excluded from
    selection downstream. Call this with the training split only.
    """
    if target not in frame.columns:
        raise DataError(f"target column {target!r} not in frame")
    y = frame.columns[target]
    y_dev = y - y.mean()
    y_ss = float(y_dev @ y_dev)
    out: dict[str, float] = {}
    for name, x in frame.columns.items():
        if name == target:
            continue
        x_dev = x - x.mean()
        x_ss = float(x_dev @ x_dev)
        if x_ss == 0.0 or y_ss == 0.0:
            out[name] = math.nan
            continue
        r = float(x_dev @ y_dev) / math.sqrt(x_ss * y_ss)
        out[name] = float(np.clip(r, -1.0, 1.0))
    return out


def select_features(correlations: dict[str, float], threshold: float) -> list[str]:
    """Columns with |r| > threshold, strongest first, ties by name."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    picked = [
        (name, r)
        for name, r in correlations.items()
        if math.isfinite(r) and abs(r) > threshold
    ]
    picked.sort(key=lambda item: (-abs(item[1]), item[0]))
    return [name for name, _ in picked]


def make_windows(
    frame: TimeSeriesFrame,
    feature_columns,
    target: str,
    window_size: int,
    horizon: int = 1,
) -> WindowedDataset:
    """Slide a window of `window_size` rows over the frame.

    Window starting at row i covers rows [i, i+W) and predicts the target at
    row i + W + horizon - 1, giving length - W - horizon + 1 samples.
    """
    if window_size < 1 or horizon < 1:
        raise ValueError("window_size and horizon must be >= 1")
    n = len(frame)
    count = n - window_size - horizon + 1
    if count < 1:
        raise DataError(
            f"frame of {n} rows is too short for window {window_size} and "
            f"horizon {horizon}; need at least {window_size + horizon}"
        )
    feature_columns = list(feature_columns)
    data = np.column_stack([frame.column(name) for name in feature_columns])
    windows = np.lib.stride_tricks.sliding_window_view(data, window_size, axis=0)
    # sliding_window_view yields (n-W+1, F, W); reorder to (count, W, F)
    inputs = np.ascontiguousarray(windows[:count].transpose(0, 2, 1))
    targets = frame.column(target)[window_size + horizon - 1 :].copy()
    return WindowedDataset(
        inputs=inputs, targets=targets, window_size=window_size, horizon=horizon
    )
