"""SVG line charts for prediction files, with no plotting dependency.

A predictions file is CSV with header `date,actual,predicted`; the predicted
cell may be empty on leading context rows (history shown before the forecast
start). The chart draws the actual and predicted series as exactly two
polyline elements, labels both axes, and marks the boundary where predictions
begin when the file contains context rows. Output is built with ElementTree,
which escapes markup, and a title holding a character outside XML 1.0's
`Char` production is a DataError, so the SVG is well-formed XML.
"""

from __future__ import annotations

import math
import re
from datetime import date
from xml.etree import ElementTree as ET

import numpy as np

from .errors import DataError
from .frame import read_csv_rows

__all__ = ["read_predictions", "format_predictions", "render_chart", "chart_from_file"]

WIDTH = 960
HEIGHT = 540
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 60

ACTUAL_COLOR = "#1f77b4"
PREDICTED_COLOR = "#d62728"

# a character outside XML 1.0's Char production, such as a control character or
# the lone surrogate a non-UTF-8 argv byte becomes
_NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def read_predictions(path):
    """Parse a predictions CSV, read by `frame.read_csv_rows`, into (dates, actual, predicted).

    `predicted` is float with NaN where the cell was empty. Raises DataError
    on an unreadable file or a structural problem (wrong header, bad numbers, unsorted dates).
    """
    rows = list(read_csv_rows(path))
    if not rows or [c.strip() for c in rows[0][1]] != ["date", "actual", "predicted"]:
        raise DataError("predictions file must start with header date,actual,predicted")
    dates: list[date] = []
    actual: list[float] = []
    predicted: list[float] = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"line {lineno}: expected 3 cells, got {len(row)}")
        try:
            dates.append(date.fromisoformat(row[0].strip()))
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad date {row[0]!r}") from exc
        try:
            a = float(row[1])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad actual value {row[1]!r}") from exc
        cell = row[2].strip()
        try:
            p = float("nan") if cell == "" else float(cell)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad predicted value {row[2]!r}") from exc
        if not np.isfinite(a) or (cell != "" and not np.isfinite(p)):
            raise DataError(f"line {lineno}: non-finite value")
        actual.append(a)
        predicted.append(p)
    if not dates:
        raise DataError("predictions file has no data rows")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DataError("prediction dates must be strictly increasing")
    return dates, np.array(actual), np.array(predicted)


def format_predictions(dates, actual, predicted) -> str:
    """Serialize a predictions table; NaN predicted cells become empty."""
    lines = ["date,actual,predicted"]
    for d, a, p in zip(dates, actual, predicted):
        cell = "" if not np.isfinite(p) else f"{p:.6f}"
        lines.append(f"{d.isoformat()},{a:.6f},{cell}")
    return "\n".join(lines) + "\n"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def render_chart(dates, actual, predicted, title: str = "Actual vs predicted") -> str:
    """Render an SVG string. `predicted` may contain NaN for context rows;
    a dashed boundary line marks where predictions begin if there are any
    context rows before that point."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    n = len(dates)
    if n != len(actual) or n != len(predicted):
        raise DataError("dates, actual, and predicted lengths differ")
    if n == 0:
        raise DataError("nothing to chart")
    bad = _NON_XML_CHAR.search(title)
    if bad:
        raise DataError(f"chart title holds {bad.group()!r}, a character XML 1.0 does not allow")

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    xs = MARGIN_LEFT + (np.arange(n) / max(n - 1, 1)) * plot_w

    have_pred = np.isfinite(predicted)
    values = np.concatenate([actual, predicted[have_pred]])
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    # y_of divides by the span: one that overflows, or that rounding took to
    # zero (a constant series past 2**53), would make every y NaN
    if not 0.0 < hi - lo < math.inf:
        raise DataError(
            f"cannot chart values from {values.min():g} to {values.max():g}: a float cannot scale that range"
        )

    def y_of(v: np.ndarray) -> np.ndarray:
        return MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
            "font-family": "sans-serif",
        },
    )
    ET.SubElement(
        svg, "rect", {"x": "0", "y": "0", "width": str(WIDTH), "height": str(HEIGHT), "fill": "white"}
    )
    t = ET.SubElement(
        svg,
        "text",
        {"x": str(WIDTH // 2), "y": "24", "text-anchor": "middle", "font-size": "16", "fill": "#222"},
    )
    t.text = title

    axis_style = {"stroke": "#444", "stroke-width": "1"}
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    ET.SubElement(svg, "line", {"x1": str(x0), "y1": str(MARGIN_TOP), "x2": str(x0), "y2": str(y0), **axis_style})
    ET.SubElement(svg, "line", {"x1": str(x0), "y1": str(y0), "x2": str(x0 + plot_w), "y2": str(y0), **axis_style})

    for frac in np.linspace(0.0, 1.0, 5):
        v = lo + frac * (hi - lo)
        y = float(y_of(np.array(v)))
        ET.SubElement(svg, "line", {"x1": str(x0 - 4), "y1": f"{y:.2f}", "x2": str(x0), "y2": f"{y:.2f}", **axis_style})
        lbl = ET.SubElement(
            svg, "text", {"x": str(x0 - 8), "y": f"{y + 4:.2f}", "text-anchor": "end", "font-size": "11", "fill": "#222"}
        )
        lbl.text = f"{v:.2f}"

    n_ticks = min(6, n)
    for idx in sorted({int(round(i)) for i in np.linspace(0, n - 1, n_ticks)}):
        x = float(xs[idx])
        ET.SubElement(svg, "line", {"x1": f"{x:.2f}", "y1": str(y0), "x2": f"{x:.2f}", "y2": str(y0 + 4), **axis_style})
        lbl = ET.SubElement(
            svg, "text", {"x": f"{x:.2f}", "y": str(y0 + 18), "text-anchor": "middle", "font-size": "11", "fill": "#222"}
        )
        lbl.text = dates[idx].isoformat()

    pred_start = int(np.argmax(have_pred)) if have_pred.any() else None
    if pred_start is not None and pred_start > 0:
        bx = float(xs[pred_start])
        ET.SubElement(
            svg,
            "line",
            {
                "x1": f"{bx:.2f}",
                "y1": str(MARGIN_TOP),
                "x2": f"{bx:.2f}",
                "y2": str(y0),
                "stroke": "#888",
                "stroke-width": "1",
                "stroke-dasharray": "5,4",
            },
        )
        lbl = ET.SubElement(
            svg,
            "text",
            {"x": f"{bx + 4:.2f}", "y": str(MARGIN_TOP + 14), "font-size": "11", "fill": "#666"},
        )
        lbl.text = "forecast start"

    ET.SubElement(
        svg,
        "polyline",
        {
            "points": _points(xs, y_of(actual)),
            "fill": "none",
            "stroke": ACTUAL_COLOR,
            "stroke-width": "1.5",
        },
    )
    ET.SubElement(
        svg,
        "polyline",
        {
            "points": _points(xs[have_pred], y_of(predicted[have_pred])),
            "fill": "none",
            "stroke": PREDICTED_COLOR,
            "stroke-width": "1.5",
        },
    )

    legend_x = MARGIN_LEFT + 12
    for i, (label, color) in enumerate((("actual", ACTUAL_COLOR), ("predicted", PREDICTED_COLOR))):
        y = MARGIN_TOP + 10 + 18 * i
        ET.SubElement(
            svg,
            "rect",
            {"x": str(legend_x), "y": str(y), "width": "14", "height": "4", "fill": color},
        )
        lbl = ET.SubElement(
            svg, "text", {"x": str(legend_x + 20), "y": str(y + 6), "font-size": "12", "fill": "#222"}
        )
        lbl.text = label

    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(svg, encoding="unicode") + "\n"


def chart_from_file(predictions_path, title: str | None = None) -> str:
    dates, actual, predicted = read_predictions(predictions_path)
    return render_chart(dates, actual, predicted, title=title or "Actual vs predicted")
