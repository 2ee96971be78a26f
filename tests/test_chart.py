import math
import re
import warnings
import xml.etree.ElementTree as ET
from datetime import date, timedelta

import numpy as np
import pytest

from marketcast.chart import (
    chart_from_file,
    format_predictions,
    read_predictions,
    render_chart,
)
from marketcast.errors import DataError

SVG_NS = "{http://www.w3.org/2000/svg}"


def days(n, start=date(2021, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def write(tmp_path, text, name="p.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- parsing


def test_read_predictions_round_trip(tmp_path):
    dates = days(4)
    actual = np.array([1.0, 2.0, 3.0, 4.0])
    predicted = np.array([math.nan, math.nan, 2.5, 4.5])
    path = write(tmp_path, format_predictions(dates, actual, predicted))
    rd, ra, rp = read_predictions(path)
    assert rd == dates
    np.testing.assert_allclose(ra, actual)
    assert np.isnan(rp[0]) and np.isnan(rp[1])
    np.testing.assert_allclose(rp[2:], predicted[2:])


def test_read_predictions_blank_cell_is_nan(tmp_path):
    path = write(tmp_path, "date,actual,predicted\n2021-01-01,1.0,\n2021-01-02,2.0,2.5\n")
    _, _, predicted = read_predictions(path)
    assert np.isnan(predicted[0]) and predicted[1] == 2.5


@pytest.mark.parametrize(
    "text",
    [
        "wrong,header,here\n2021-01-01,1.0,2.0\n",
        "date,actual,predicted\n",
        "date,actual,predicted\n2021-01-01,1.0\n",
        "date,actual,predicted\nnot-a-date,1.0,2.0\n",
        "date,actual,predicted\n2021-01-01,potato,2.0\n",
        "date,actual,predicted\n2021-01-01,1.0,potato\n",
        "date,actual,predicted\n2021-01-02,1.0,2.0\n2021-01-01,1.0,2.0\n",
        "date,actual,predicted\n2021-01-01,inf,2.0\n",
    ],
)
def test_read_predictions_rejects_malformed(tmp_path, text):
    with pytest.raises(DataError):
        read_predictions(write(tmp_path, text))


def test_read_predictions_missing_file(tmp_path):
    with pytest.raises(DataError):
        read_predictions(tmp_path / "absent.csv")


def test_format_predictions_nan_becomes_empty_cell():
    out = format_predictions(days(2), [1.0, 2.0], [math.nan, 3.0])
    lines = out.splitlines()
    assert lines[0] == "date,actual,predicted"
    assert lines[1] == "2021-01-01,1.000000,"
    assert lines[2] == "2021-01-02,2.000000,3.000000"


# ---------------------------------------------------------------- rendering


def parse_svg(svg_text):
    assert svg_text.startswith('<?xml version="1.0"')
    return ET.fromstring(svg_text)


def polylines(root):
    return root.findall(f"{SVG_NS}polyline")


def test_render_chart_structure():
    dates = days(10)
    actual = np.linspace(1.0, 2.0, 10)
    predicted = np.concatenate([np.full(4, np.nan), np.linspace(1.5, 2.1, 6)])
    root = parse_svg(render_chart(dates, actual, predicted))
    lines = polylines(root)
    assert len(lines) == 2
    actual_pts = lines[0].get("points").split()
    pred_pts = lines[1].get("points").split()
    assert len(actual_pts) == 10
    assert len(pred_pts) == 6
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "actual" in texts and "predicted" in texts
    assert "Actual vs predicted" in texts
    assert "forecast start" in texts  # context rows precede the first prediction
    dashed = [e for e in root.iter(f"{SVG_NS}line") if e.get("stroke-dasharray")]
    assert len(dashed) == 1


def test_render_chart_no_boundary_without_context():
    dates = days(5)
    actual = np.arange(5.0)
    predicted = np.arange(5.0) + 0.1
    root = parse_svg(render_chart(dates, actual, predicted, title="t"))
    dashed = [e for e in root.iter(f"{SVG_NS}line") if e.get("stroke-dasharray")]
    assert dashed == []
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "forecast start" not in texts


def test_render_chart_points_stay_inside_canvas():
    dates = days(40)
    rng = np.random.default_rng(0)
    actual = 100 + rng.normal(size=40).cumsum()
    predicted = actual + rng.normal(scale=0.5, size=40)
    root = parse_svg(render_chart(dates, actual, predicted))
    for line in polylines(root):
        for pair in line.get("points").split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= 960 and 0 <= y <= 540


def test_render_chart_constant_series_ok():
    root = parse_svg(render_chart(days(3), [5.0, 5.0, 5.0], [5.0, 5.0, 5.0]))
    assert len(polylines(root)) == 2


@pytest.mark.parametrize(
    "actual, predicted",
    [
        ([1e308, -1e308], [np.nan, 1.0]),  # the span itself overflows
        ([1.79e308, 0.0], [np.nan, 1.0]),  # the 5% padding overflows
        ([1e17, 1e17], [np.nan, 1e17]),  # +-1 around a constant series rounds away
    ],
)
def test_render_chart_refuses_a_range_a_float_cannot_scale(actual, predicted):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape(f"cannot chart values from {min(actual):g} to {max(actual):g}")):
            render_chart(days(2), actual, predicted)


def test_render_chart_validation():
    with pytest.raises(DataError):
        render_chart(days(3), [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        render_chart([], [], [])


def test_chart_from_file(tmp_path):
    dates = days(6)
    actual = np.linspace(10, 12, 6)
    predicted = np.concatenate([np.full(2, np.nan), np.linspace(10.5, 12.2, 4)])
    path = write(tmp_path, format_predictions(dates, actual, predicted))
    svg = chart_from_file(path, title="my run")
    root = parse_svg(svg)
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "my run" in texts
    assert len(polylines(root)) == 2
