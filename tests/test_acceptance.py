"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE n <name>: PASS|FAIL (details)`` line
(visible under ``pytest -s``) and then asserts, so a red run still shows
the full scorecard. Budgets are wall-clock seconds on a laptop-class
machine; every criterion checks its own runtime.
"""

import math
import re
import time
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from marketcast import arima as arima_mod
from marketcast import garch as garch_mod
from marketcast import metrics as metrics_mod
from marketcast import synth
from marketcast.frame import (
    SplitSpec,
    TimeSeriesFrame,
    apply_scaler,
    fit_scaler,
    forward_fill,
    invert_scaler,
    make_windows,
)
from marketcast.lstm import LstmConfig, backward, init_network, train
from marketcast.frame import WindowedDataset

from helpers import chrono_split, forward, garch_recursion, simulate_garch11

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "synthetic_prices.csv"


def _report(num, name, ok, details):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"acceptance criterion {num} ({name}) failed: {details}"


def _frame(values_by_column, start=date(2020, 1, 6)):
    n = len(next(iter(values_by_column.values())))
    dates = tuple(start + timedelta(days=i) for i in range(n))
    return TimeSeriesFrame(
        dates=dates, columns={k: np.asarray(v, dtype=float) for k, v in values_by_column.items()}
    )


# ------------------------------------------------------------------ 1


def test_1_metrics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        actual = rng.normal(scale=100.0, size=n)
        predicted = actual + rng.normal(scale=10.0, size=n)
        mae_oracle = sum(abs(a - p) for a, p in zip(actual, predicted)) / n
        rmse_oracle = math.sqrt(sum((a - p) ** 2 for a, p in zip(actual, predicted)) / n)
        scale = max(1.0, mae_oracle)
        worst = max(worst, abs(metrics_mod.mae(actual, predicted) - mae_oracle) / scale)
        worst = max(worst, abs(metrics_mod.rmse(actual, predicted) - rmse_oracle) / max(1.0, rmse_oracle))
        mean = actual.mean()
        if abs(mean) > 1e-8:
            acc_oracle = 100.0 - (mae_oracle / mean) * 100.0
            got = metrics_mod.accuracy(mae_oracle, mean)
            worst = max(worst, abs(got - acc_oracle) / max(1.0, abs(acc_oracle)))

    # published-style consistency check: an 89.8% accuracy at MAE 462.1
    # implies the actual mean it was scored against
    implied_mean = 100.0 * 462.1 / (100.0 - 89.8)
    cross_err = abs(metrics_mod.accuracy(462.1, implied_mean) - 89.8)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and cross_err < 0.05 and elapsed < 5.0
    _report(
        1,
        "metrics_oracle",
        ok,
        f"worst rel err {worst:.2e}, cross-check err {cross_err:.2e}pp, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 2


def _loss_and_grads(network, window, target, rng_seed):
    rng = np.random.default_rng(rng_seed) if network.config.dropout_rate > 0 else None
    mode = "train" if network.config.dropout_rate > 0 else "eval"
    pred, caches = forward(network, window, mode=mode, rng=rng)
    loss = (pred - target) ** 2
    grads = backward(network, caches, np.array([2.0 * (pred - target)]))
    return loss, grads


def _loss_only(network, window, target, rng_seed):
    rng = np.random.default_rng(rng_seed) if network.config.dropout_rate > 0 else None
    mode = "train" if network.config.dropout_rate > 0 else "eval"
    pred, _ = forward(network, window, mode=mode, rng=rng)
    return (pred - target) ** 2


def test_2_lstm_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-6
    for seed in range(20):
        layers = 1 if seed % 2 == 0 else 2
        features = 1 + seed % 3
        dropout = 0.0 if seed % 4 < 2 else 0.25
        cfg = LstmConfig(
            input_size=features,
            hidden_size=4,
            num_layers=layers,
            dropout_rate=dropout,
            learning_rate=0.01,
            batch_size=1,
            max_epochs=1,
            patience=1,
            seed=seed,
        )
        net = init_network(cfg)
        rng = np.random.default_rng(1000 + seed)
        window = rng.normal(size=(8, features))
        target = float(rng.normal())

        _, grads = _loss_and_grads(net, window, target, rng_seed=seed)
        for arr, grad in zip(net.parameters(), grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = _loss_only(net, window, target, rng_seed=seed)
                flat[k] = orig - h
                dn = _loss_only(net, window, target, rng_seed=seed)
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(gflat[k]), 1e-8)
                worst = max(worst, abs(fd - gflat[k]) / denom)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(2, "lstm_gradient_check", ok, f"worst rel err {worst:.2e} over 20 configs, {elapsed:.1f}s")


# ------------------------------------------------------------------ 3


def _sine_sets():
    series = np.sin(np.arange(70) / 3.0)
    w = 20
    count = len(series) - w
    X = np.stack([series[i : i + w, None] for i in range(count)])
    y = np.array([series[i + w] for i in range(count)])
    full = WindowedDataset(inputs=X, targets=y, window_size=w, horizon=1)
    empty = WindowedDataset(
        inputs=np.zeros((0, w, 1)), targets=np.zeros(0), window_size=w, horizon=1
    )
    return full, empty


def test_3_lstm_sine_overfit():
    t0 = time.perf_counter()
    train_set, empty_val = _sine_sets()
    assert len(train_set) == 50
    cfg = LstmConfig(
        input_size=1,
        hidden_size=16,
        num_layers=2,
        dropout_rate=0.0,
        learning_rate=0.01,
        batch_size=16,
        max_epochs=2000,
        patience=0,
        seed=0,
    )
    _, hist = train(init_network(cfg), train_set, empty_val, cfg)
    final_mse = hist.train_losses[-1]

    # the procedure is seed-deterministic: identical short reruns coincide
    short = replace(cfg, max_epochs=50, patience=0)
    _, h1 = train(init_network(short), train_set, empty_val, short)
    _, h2 = train(init_network(short), train_set, empty_val, short)
    deterministic = h1.train_losses == h2.train_losses

    elapsed = time.perf_counter() - t0
    ok = final_mse < 1e-3 and deterministic and elapsed < 120.0
    _report(
        3,
        "lstm_sine_overfit",
        ok,
        f"final train MSE {final_mse:.2e} after {len(hist.train_losses)} epochs, "
        f"deterministic={deterministic}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 4


def _simulate_ar1(phi, n, seed, burn=500):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + burn)
    x = np.empty(n + burn)
    x[0] = e[0]
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + e[t]
    return x[burn:]


def test_4_arima_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        series = _simulate_ar1(0.7, 5000, seed)
        model = arima_mod.fit_arma(series, 1, 0)
        if abs(model.phi[0] - 0.7) <= 0.05:
            hits += 1

    d1 = 0
    for seed in range(100, 120):
        walk = np.cumsum(np.random.default_rng(seed).standard_normal(2000))
        model = arima_mod.auto_arima(walk, bounds=(2, 2, 2))
        if model.order.d == 1:
            d1 += 1

    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and d1 >= 16 and elapsed < 300.0
    _report(
        4,
        "arima_recovery",
        ok,
        f"AR(1) recovered {hits}/50, random walks chose d=1 in {d1}/20, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 5


def test_5_garch_recovery():
    t0 = time.perf_counter()
    true = garch_mod.GarchParams(alpha0=0.1, alpha1=0.1, beta1=0.8)
    residuals = simulate_garch11(true, 10000, np.random.default_rng(42))
    fitted = garch_mod.fit_garch11(residuals)
    errs = (
        abs(fitted.alpha0 - 0.1),
        abs(fitted.alpha1 - 0.1),
        abs(fitted.beta1 - 0.8),
    )

    # one-step hand example: 0.1 + 0.2*1^2 + 0.6*1.0 = 0.9, bit-exact
    sigma2 = garch_recursion(
        garch_mod.GarchParams(alpha0=0.1, alpha1=0.2, beta1=0.6),
        np.array([1.0]),
        sigma2_0=1.0,
    )
    exact = sigma2[0] == 0.9

    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 0.1 and exact and elapsed < 120.0
    _report(
        5,
        "garch_recovery",
        ok,
        f"fitted ({fitted.alpha0:.4f}, {fitted.alpha1:.4f}, {fitted.beta1:.4f}) "
        f"vs (0.1, 0.1, 0.8), recursion exact={exact}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 6


def _metric(path, label):
    text = Path(path).read_text()
    m = re.search(rf"^{label} = (-?[0-9.]+)$", text, flags=re.M)
    assert m, f"{label} missing from {path}"
    return float(m.group(1))


def test_6_benchmark_ranking(tmp_path):
    from marketcast.pipeline import PipelineConfig, run_pipeline

    t0 = time.perf_counter()
    assert DATA_CSV.is_file(), "bundled dataset missing"
    cfg = PipelineConfig(
        input_path=str(DATA_CSV),
        out_dir=str(tmp_path),
        feature_mode="price_only",
        model_mode="both",
        forecast_mode="static",
        lstm_epochs=25,
        seed=0,
    )
    art = run_pipeline(cfg)
    lstm_acc = _metric(art.metrics["lstm"], "accuracy_pct")
    arima_acc = _metric(art.metrics["arima"], "accuracy_pct")
    arima_first = _metric(art.metrics["arima"], "accuracy_first_half_pct")
    arima_second = _metric(art.metrics["arima"], "accuracy_second_half_pct")

    elapsed = time.perf_counter() - t0
    ok = lstm_acc >= arima_acc and arima_first >= arima_second and elapsed < 900.0
    _report(
        6,
        "benchmark_ranking",
        ok,
        f"LSTM acc {lstm_acc:.2f}% vs ARIMA acc {arima_acc:.2f}%, "
        f"ARIMA halves {arima_first:.2f}%/{arima_second:.2f}%, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 7


def test_7_run_determinism(tmp_path):
    from marketcast.pipeline import PipelineConfig, run_pipeline

    t0 = time.perf_counter()
    input_csv = tmp_path / "prices.csv"
    synth.write_csv(synth.generate(seed=5, n_days=400), input_csv)
    common = dict(
        input_path=str(input_csv),
        window=60,
        arima_bounds=(1, 1, 1),
        lstm_hidden=8,
        lstm_batch=16,
        lstm_epochs=2,
        seed=0,
    )
    art_a = run_pipeline(PipelineConfig(out_dir=str(tmp_path / "a"), **common))
    art_b = run_pipeline(PipelineConfig(out_dir=str(tmp_path / "b"), **common))
    same = True
    for leg in ("arima", "lstm"):
        same &= Path(art_a.predictions[leg]).read_bytes() == Path(art_b.predictions[leg]).read_bytes()
        same &= Path(art_a.metrics[leg]).read_bytes() == Path(art_b.metrics[leg]).read_bytes()

    elapsed = time.perf_counter() - t0
    ok = same and elapsed < 120.0
    _report(7, "run_determinism", ok, f"predictions and metrics byte-identical={same}, {elapsed:.1f}s")


# ------------------------------------------------------------------ 8


def test_8_preprocessing_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    # scaler round trip on training-fitted bounds
    frame = _frame(
        {
            "A": 100 + rng.normal(size=120).cumsum(),
            "B": rng.uniform(5, 9, size=120),
            "C": rng.normal(scale=40, size=120),
        }
    )
    scaler = fit_scaler(frame.rows(0, 80))
    scaled = apply_scaler(frame, scaler)
    scaler_err = 0.0
    for name in frame.columns:
        back = invert_scaler(scaled.columns[name], name, scaler)
        span = max(1.0, float(np.abs(frame.columns[name]).max()))
        scaler_err = max(scaler_err, float(np.abs(back - frame.columns[name]).max()) / span)

    # window count vs direct enumeration on fuzzed shapes
    windows_ok = True
    for _ in range(200):
        n = int(rng.integers(5, 60))
        w = int(rng.integers(1, 10))
        h = int(rng.integers(1, 4))
        expected = n - w - h + 1
        if expected < 1:
            continue
        values = rng.normal(size=n)
        ds = make_windows(_frame({"Y": values}), ["Y"], "Y", w, h)
        windows_ok &= len(ds) == expected
        for i in (0, expected - 1):
            windows_ok &= np.array_equal(ds.inputs[i, :, 0], values[i : i + w])
            windows_ok &= ds.targets[i] == values[i + w + h - 1]

    # 60/20/20 chronological split on 10 rows lands 6/2/2
    ten = _frame({"Y": np.arange(10.0)})
    parts = chrono_split(ten, SplitSpec((0.6, 0.2, 0.2)))
    split_ok = tuple(len(p) for p in parts) == (6, 2, 2)
    split_ok &= parts[0].dates[-1] < parts[1].dates[0] < parts[2].dates[0]

    # forward filling an already-filled frame changes nothing
    gappy = _frame({"A": [1.0, np.nan, 2.0, np.nan], "B": [np.nan, 4.0, np.nan, 5.0]})
    once = forward_fill(gappy)
    twice = forward_fill(once)
    fill_ok = once.dates == twice.dates and all(
        np.array_equal(once.columns[c], twice.columns[c]) for c in once.columns
    )

    elapsed = time.perf_counter() - t0
    ok = scaler_err <= 1e-12 and windows_ok and split_ok and fill_ok and elapsed < 10.0
    _report(
        8,
        "preprocessing_suite",
        ok,
        f"scaler err {scaler_err:.2e}, windows={windows_ok}, split={split_ok}, "
        f"refill={fill_ok}, {elapsed:.1f}s",
    )
