import math
from datetime import date

import numpy as np
import pytest

from marketcast.synth import COLUMN_FORMATS, RegimeSpec, generate, write_csv


def test_generate_shape_and_calendar():
    frame = generate(seed=0, n_days=100)
    assert len(frame) == 100
    assert list(frame.columns) == list(COLUMN_FORMATS)
    assert frame.dates[0] == date(2013, 10, 1)
    for a, b in zip(frame.dates, frame.dates[1:]):
        assert a < b
    assert all(d.weekday() < 5 for d in frame.dates)


def test_ohlc_invariants():
    frame = generate(seed=3, n_days=500)
    o = frame.columns["PX_OPEN"]
    h = frame.columns["PX_HIGH"]
    lo = frame.columns["PX_LOW"]
    c = frame.columns["PX_LAST"]
    assert np.all(h >= np.maximum(o, c))
    assert np.all(lo <= np.minimum(o, c))
    assert np.all(lo > 0)
    assert np.all(frame.columns["PX_VOLUME"] > 0)


def test_macro_rate_monthly_sampling():
    frame = generate(seed=1, n_days=130)
    macro = frame.columns["MACRO_RATE"]
    month_starts = [
        i
        for i, d in enumerate(frame.dates)
        if i == 0 or (d.year, d.month) != (frame.dates[i - 1].year, frame.dates[i - 1].month)
    ]
    finite = np.flatnonzero(np.isfinite(macro))
    assert finite.tolist() == month_starts
    assert math.isfinite(macro[0])
    assert np.all(macro[finite] > 0)


def test_generate_deterministic_per_seed():
    a = generate(seed=7, n_days=60)
    b = generate(seed=7, n_days=60)
    c = generate(seed=8, n_days=60)
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    assert not np.array_equal(a.columns["PX_LAST"], c.columns["PX_LAST"])


def test_regime_break_shifts_volatility():
    spec = RegimeSpec(break_fraction=0.5, vol_before=0.1, vol_after=0.4)
    frame = generate(seed=0, n_days=2000, regimes=spec)
    r = np.diff(np.log(frame.columns["PX_LAST"]))
    early = np.std(r[: 1000 - 1])
    late = np.std(r[1000:])
    assert late > 2.5 * early


def test_single_regime_when_break_is_one():
    spec = RegimeSpec(break_fraction=1.0, vol_before=0.2, vol_after=0.9)
    frame = generate(seed=0, n_days=1500, regimes=spec)
    r = np.diff(np.log(frame.columns["PX_LAST"]))
    halves = np.std(r[:749]), np.std(r[750:])
    assert abs(halves[0] - halves[1]) < 0.3 * max(halves)


def test_validation_errors():
    with pytest.raises(ValueError):
        generate(seed=0, n_days=0)
    with pytest.raises(ValueError):
        RegimeSpec(break_fraction=0.0)
    with pytest.raises(ValueError):
        RegimeSpec(vol_after=-0.1)
    with pytest.raises(ValueError):
        RegimeSpec(start_price=0.0)


@pytest.mark.parametrize("field", ["break_fraction", "drift_before", "vol_before", "drift_after",
                                   "vol_after", "start_price"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_regime_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RegimeSpec(**{field: value})


def test_write_csv_format(tmp_path):
    frame = generate(seed=2, n_days=45)
    out = tmp_path / "prices.csv"
    write_csv(frame, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "DATE," + ",".join(COLUMN_FORMATS)
    assert len(lines) == 46
    first = lines[1].split(",")
    assert first[0] == "2013-10-01"
    assert len(first[1].split(".")[1]) == 4  # PX_OPEN printed to 4 decimals
    assert "." not in first[5]  # PX_VOLUME printed as an integer
    # MACRO_RATE is blank away from month starts
    second = lines[2].split(",")
    assert second[7] == ""

    other = tmp_path / "again.csv"
    write_csv(frame, other)
    assert out.read_bytes() == other.read_bytes()
