import math
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketcast.errors import DataError
from marketcast.frame import (
    ScalerParams,
    SplitSpec,
    TimeSeriesFrame,
    apply_scaler,
    chrono_split,
    correlation_vector,
    fit_scaler,
    forward_fill,
    invert_scaler,
    load_csv,
    make_windows,
    select_features,
    split_bounds,
    write_csv,
)


def frame_of(**columns):
    n = len(next(iter(columns.values())))
    dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(n))
    return TimeSeriesFrame(dates=dates, columns={k: np.asarray(v, float) for k, v in columns.items()})


# ---------------------------------------------------------------- csv io


def test_load_csv_parses_and_sorts(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("DATE,A,B\n2020-01-02,2.5,\n2020-01-01,1.0,9\nbogus-skipped\n".replace("bogus-skipped\n", ""))
    f = load_csv(p)
    assert f.dates == (date(2020, 1, 1), date(2020, 1, 2))
    assert f.column("A").tolist() == [1.0, 2.5]
    assert math.isnan(f.column("B")[1]) and f.column("B")[0] == 9.0
    p.write_text("DATE,A\n2020-01-01,nan\n2020-01-02,\n2020-01-03,NaN\n")
    assert np.isnan(load_csv(p).column("A")).all()  # empty and literal nan cells are missing


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")
    p = tmp_path / "nodate.csv"
    p.write_text("A,B\n1,2\n")
    with pytest.raises(DataError):
        load_csv(p)
    p2 = tmp_path / "dup.csv"
    p2.write_text("DATE,A\n2020-01-01,1\n2020-01-01,2\n")
    with pytest.raises(DataError):
        load_csv(p2)
    p3 = tmp_path / "empty.csv"
    p3.write_text("DATE,A\n")
    with pytest.raises(DataError):
        load_csv(p3)
    for name, body, message in [
        ("baddate.csv", "DATE,A\n2020-01-01,1\n2020-13-40,2\n", "line 3: unparseable date '2020-13-40'"),
        ("wide.csv", "DATE,A\n2020-01-01,1\n2020-01-02,2,7\n", "line 3 has 3 cells, more than the 2"),
        ("inf.csv", "DATE,PX_LAST\n2020-01-01,1\n2020-01-02,inf\n2020-01-03,3\n",
         "line 3, column 'PX_LAST': infinite value 'inf'"),
        ("neginf.csv", "DATE,A,B\n2020-01-01,1,-Infinity\n", "line 2, column 'B': infinite value"),
        ("dupline.csv", "DATE,A\n2020-01-02,1\n2020-01-01,2\n2020-01-02,3\n",
         "duplicate date 2020-01-02 on lines 2 and 4"),
    ]:
        p = tmp_path / name
        p.write_text(body)
        with pytest.raises(DataError, match=re.escape(f"{p}: {message}")):
            load_csv(p)


def test_load_csv_short_row_names_its_line(tmp_path):
    # DATE is the third column; line 4 stops after one cell
    p = tmp_path / "short.csv"
    p.write_text("A,B,DATE\n1,2,2020-01-01\n\n3\n4,5,2020-01-03\n")
    with pytest.raises(DataError, match="line 4 has 1 cells"):
        load_csv(p)


def test_write_csv_round_trip(tmp_path):
    f = frame_of(A=[1.25, math.nan, 3.0], B=[4.0, 5.0, 6.0])
    p = tmp_path / "rt.csv"
    write_csv(f, p)
    g = load_csv(p)
    assert g.dates == f.dates
    assert np.array_equal(np.isnan(g.column("A")), np.isnan(f.column("A")))
    np.testing.assert_allclose(g.column("B"), f.column("B"), atol=1e-9)
    # deterministic bytes
    p2 = tmp_path / "rt2.csv"
    write_csv(f, p2)
    assert p.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- forward fill


def ffill_oracle(values):
    out = []
    last = math.nan
    for v in values:
        if math.isfinite(v):
            last = v
        out.append(last)
    return out


def test_forward_fill_matches_oracle():
    vals = [1.0, math.nan, math.nan, 4.0, math.nan]
    f = forward_fill(frame_of(A=vals))
    np.testing.assert_array_equal(f.column("A"), ffill_oracle(vals))


def test_forward_fill_drops_leading_gap_rows():
    f = forward_fill(frame_of(A=[math.nan, math.nan, 3.0, math.nan], B=[1.0, 2.0, 3.0, 4.0]))
    # first two rows lack any prior observation for A
    assert len(f) == 2
    assert f.column("A").tolist() == [3.0, 3.0]
    assert f.column("B").tolist() == [3.0, 4.0]
    assert f.dates[0] == date(2020, 1, 3)


@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)),
        min_size=1,
        max_size=60,
    ).filter(lambda vs: any(v is not None for v in vs))
)
def test_forward_fill_idempotent(vals):
    vals = [math.nan if v is None else v for v in vals]
    once = forward_fill(frame_of(A=vals))
    twice = forward_fill(once)
    assert once.dates == twice.dates
    np.testing.assert_array_equal(once.column("A"), twice.column("A"))
    # filled output has no missing cells
    assert np.isfinite(once.column("A")).all()


def test_forward_fill_all_missing_column():
    with pytest.raises(DataError):
        forward_fill(frame_of(A=[math.nan, math.nan]))


# ---------------------------------------------------------------- splits


def test_chrono_split_6_2_2():
    f = frame_of(A=list(range(10)))
    parts = chrono_split(f, SplitSpec(fractions=(0.6, 0.2, 0.2)))
    assert [len(p) for p in parts] == [6, 2, 2]
    assert parts[0].column("A").tolist() == [0, 1, 2, 3, 4, 5]
    assert parts[2].column("A").tolist() == [8, 9]


def test_split_bounds_structure():
    b = split_bounds(10, SplitSpec(fractions=(0.6, 0.2, 0.2)))
    assert b == [0, 6, 8, 10]


@given(st.integers(min_value=3, max_value=500))
def test_split_bounds_cover_everything(n):
    spec = SplitSpec(fractions=(0.6, 0.2, 0.2))
    b = split_bounds(n, spec)
    assert b[0] == 0 and b[-1] == n
    assert all(lo <= hi for lo, hi in zip(b, b[1:]))
    parts = chrono_split(frame_of(A=list(range(n))), spec)
    assert sum(len(p) for p in parts) == n


def test_split_spec_validation():
    with pytest.raises((DataError, ValueError)):
        SplitSpec(fractions=(0.5, 0.6))


@pytest.mark.parametrize(
    "fractions",
    [(math.nan, 0.2, 0.2), (0.6, math.nan, 0.2), (0.6, 0.2, math.inf), (-math.inf, 0.5, 0.5), (1.2, -0.2, 0.0)],
)
def test_split_spec_rejects_non_finite_and_negative(fractions):
    with pytest.raises(DataError, match="finite and non-negative"):
        SplitSpec(fractions=fractions)


# ---------------------------------------------------------------- scaler


def test_scaler_known_values():
    f = frame_of(A=[0.0, 5.0, 10.0])
    params = fit_scaler(f)
    scaled = apply_scaler(f, params)
    assert scaled.column("A").tolist() == [0.0, 0.5, 1.0]


def test_scaler_constant_column_maps_to_zero():
    f = frame_of(A=[7.0, 7.0, 7.0])
    scaled = apply_scaler(f, fit_scaler(f))
    assert scaled.column("A").tolist() == [0.0, 0.0, 0.0]


def test_scaler_rejects_missing_values():
    with pytest.raises(DataError):
        fit_scaler(frame_of(A=[1.0, math.nan]))


def test_scaler_out_of_range_passthrough():
    train = frame_of(A=[0.0, 10.0])
    params = fit_scaler(train)
    test = frame_of(A=[-5.0, 15.0])
    scaled = apply_scaler(test, params)
    assert scaled.column("A").tolist() == [-0.5, 1.5]


@given(
    st.lists(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False), min_size=2, max_size=80)
)
def test_scaler_round_trip(vals):
    f = frame_of(A=vals)
    params = fit_scaler(f)
    scaled = apply_scaler(f, params)
    back = invert_scaler(scaled.column("A"), "A", params)
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert np.max(np.abs(back - f.column("A"))) <= 1e-12 * scale


def test_scaler_params_serialization_round_trip():
    params = fit_scaler(frame_of(A=[1.0, 2.0], B=[-3.0, 4.5]))
    again = ScalerParams.from_dict(params.to_dict())
    assert again.mins == params.mins and again.maxs == params.maxs


# ---------------------------------------------------------------- correlations


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_correlation_matches_oracle(rng):
    x = rng.normal(size=50)
    y = 0.3 * x + rng.normal(size=50)
    f = frame_of(T=y, X=x)
    r = correlation_vector(f, "T")["X"]
    assert r == pytest.approx(pearson_oracle(x.tolist(), y.tolist()), abs=1e-12)


def test_correlation_zero_variance_is_nan():
    f = frame_of(T=[1.0, 2.0, 3.0], C=[5.0, 5.0, 5.0])
    assert math.isnan(correlation_vector(f, "T")["C"])


def test_correlation_excludes_target_and_checks_name():
    f = frame_of(T=[1.0, 2.0, 3.0], X=[1.0, 2.0, 4.0])
    r = correlation_vector(f, "T")
    assert "T" not in r
    with pytest.raises(DataError):
        correlation_vector(f, "NOPE")


def test_select_features_threshold_and_order():
    corr = {"A": 0.9, "B": -0.95, "C": 0.5, "D": math.nan, "E": 0.91}
    assert select_features(corr, 0.5) == ["B", "E", "A"]
    assert select_features(corr, 0.99) == []
    with pytest.raises(ValueError):
        select_features(corr, 1.5)


# ---------------------------------------------------------------- windows


def windows_oracle(values, w, h):
    # brute-force enumeration of (window, target) pairs
    out = []
    for i in range(len(values)):
        if i + w + h - 1 < len(values):
            out.append((values[i : i + w], values[i + w + h - 1]))
    return out


def test_make_windows_content_matches_enumeration():
    vals = [float(i) for i in range(12)]
    f = frame_of(A=vals)
    ds = make_windows(f, ["A"], "A", window_size=4, horizon=2)
    expected = windows_oracle(vals, 4, 2)
    assert len(ds) == len(expected)
    for k, (win, tgt) in enumerate(expected):
        np.testing.assert_array_equal(ds.inputs[k, :, 0], win)
        assert ds.targets[k] == tgt


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=5),
)
def test_window_count_matches_formula_and_enumeration(n, w, h):
    vals = [float(i) for i in range(n)]
    expected = windows_oracle(vals, w, h)
    f = frame_of(A=vals)
    if n - w - h + 1 < 1:
        with pytest.raises(DataError):
            make_windows(f, ["A"], "A", window_size=w, horizon=h)
        return
    ds = make_windows(f, ["A"], "A", window_size=w, horizon=h)
    assert len(ds) == n - w - h + 1 == len(expected)


def test_make_windows_multifeature_layout():
    f = frame_of(A=[0.0, 1.0, 2.0, 3.0], B=[10.0, 11.0, 12.0, 13.0])
    ds = make_windows(f, ["A", "B"], "A", window_size=2, horizon=1)
    assert ds.inputs.shape == (2, 2, 2)
    np.testing.assert_array_equal(ds.inputs[0], [[0.0, 10.0], [1.0, 11.0]])
    assert ds.targets.tolist() == [2.0, 3.0]


def test_windowed_dataset_subset():
    f = frame_of(A=[float(i) for i in range(8)])
    ds = make_windows(f, ["A"], "A", window_size=2, horizon=1)
    mask = np.arange(len(ds)) % 2 == 0
    sub = ds.subset(mask)
    assert len(sub) == int(mask.sum())
    np.testing.assert_array_equal(sub.targets, ds.targets[mask])


# ---------------------------------------------------------------- frame ops


def test_rows_restrict_with_columns():
    f = frame_of(A=[1.0, 2.0, 3.0], B=[4.0, 5.0, 6.0])
    r = f.rows(1, 3)
    assert r.column("A").tolist() == [2.0, 3.0] and len(r.dates) == 2
    only_b = f.restrict(["B"])
    assert only_b.column_names == ["B"]
    g = f.with_columns({"C": np.array([7.0, 8.0, 9.0])})
    assert g.column_names == ["A", "B", "C"]
    assert f.column_names == ["A", "B"]


def test_frame_validation():
    with pytest.raises(DataError):
        TimeSeriesFrame(
            dates=(date(2020, 1, 1),),
            columns={"A": np.array([1.0, 2.0])},
        )
