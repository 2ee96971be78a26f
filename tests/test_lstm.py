import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import suppress
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketcast import _lstm_workers, lstm
from marketcast.errors import DataError, DivergenceError, ModelFitError
from marketcast.frame import WindowedDataset
from marketcast.lstm import (
    EVAL_CHUNK,
    AdamState,
    LstmConfig,
    _glorot,
    _rng_streams,
    adam_step,
    backward,
    init_network,
    layer_workers,
    load_checkpoint,
    predict_series,
    save_checkpoint,
    train,
)

from helpers import forward


def tiny_config(**over):
    base = dict(
        input_size=2,
        hidden_size=3,
        num_layers=2,
        dropout_rate=0.0,
        learning_rate=0.01,
        batch_size=4,
        max_epochs=5,
        patience=5,
        seed=0,
    )
    base.update(over)
    return LstmConfig(**base)


def dataset_from_series(series, w, h=1):
    series = np.asarray(series, dtype=float)
    count = len(series) - w - h + 1
    X = np.stack([series[i : i + w, None] for i in range(count)])
    y = np.array([series[i + w + h - 1] for i in range(count)])
    return WindowedDataset(inputs=X, targets=y, window_size=w, horizon=h)


def empty_dataset(w, features=1):
    return WindowedDataset(
        inputs=np.zeros((0, w, features)), targets=np.zeros(0), window_size=w, horizon=1
    )


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0)
    with pytest.raises(ValueError):
        tiny_config(hidden_size=0)
    with pytest.raises(ValueError):
        tiny_config(patience=9, max_epochs=5)
    cfg = tiny_config(dropout_rate=0.0)
    assert asdict(cfg)["hidden_size"] == 3


@pytest.mark.parametrize(
    "field", ["input_size", "hidden_size", "num_layers", "batch_size", "max_epochs", "patience", "seed"]
)
@pytest.mark.parametrize("value", [True, 2.0, "2", np.int64(2)])
def test_config_rejects_non_int_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value})


# ---------------------------------------------------------------- init


def test_init_shapes_and_forget_bias():
    cfg = tiny_config(input_size=4, hidden_size=5, num_layers=2)
    net = init_network(cfg)
    l0, l1 = net.layers
    assert l0.w.shape == (20, 4) and l1.w.shape == (20, 5)
    assert l0.u.shape == (20, 5) and l1.u.shape == (20, 5)
    assert l0.b.shape == (20,) and l1.b.shape == (20,)
    assert net.dense_w.shape == (5,) and net.dense_b.shape == (1,)
    # forget rows b[H:2H] start at one, the other gate biases at zero
    for layer in net.layers:
        np.testing.assert_array_equal(layer.b, np.r_[np.zeros(5), np.ones(5), np.zeros(10)])


def test_init_deterministic_by_seed():
    a = init_network(tiny_config(seed=7))
    b = init_network(tiny_config(seed=7))
    c = init_network(tiny_config(seed=8))
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa, pb)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)
    # the fused blocks hold the draws of a gate-by-gate initialisation:
    # per layer, for each gate (i, f, o, g), W then U; the dense head last
    rng, _ = _rng_streams(7)
    for layer, d in zip(a.layers, (2, 3)):
        for gate in range(4):
            rows = slice(3 * gate, 3 * gate + 3)
            np.testing.assert_array_equal(layer.w[rows], _glorot(rng, 3, d))
            np.testing.assert_array_equal(layer.u[rows], _glorot(rng, 3, 3))
    np.testing.assert_array_equal(a.dense_w, _glorot(rng, 3, 1)[:, 0])


# ---------------------------------------------------------------- scalar oracle


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_forward_matches_scalar_oracle():
    # D = H = 1 over two steps, so the recurrent term U h_{t-1} is exercised
    cfg = tiny_config(input_size=1, hidden_size=1, num_layers=1, seed=3)
    net = init_network(cfg)
    layer = net.layers[0]
    w, u, b = layer.w[:, 0], layer.u[:, 0], layer.b
    h, c = 0.0, 0.0
    for x in (0.3, -0.7):
        z = [w[k] * x + u[k] * h + b[k] for k in range(4)]
        i, f, o, g = sigmoid(z[0]), sigmoid(z[1]), sigmoid(z[2]), math.tanh(z[3])
        c = f * c + i * g
        h = o * math.tanh(c)
    pred_want = net.dense_w[0] * h + net.dense_b[0]
    pred, cache = forward(net, np.array([[0.3], [-0.7]]))
    gates, c_seq = cache["gates"][0], cache["c"][0]
    c_last = c_seq[(2 - 1) % len(c_seq), 0, 0]  # c_T's slot in the ring of span slots
    assert c_last == pytest.approx(c, abs=1e-14)
    # h is not cached: h_T = o_T tanh(c_T), o the third gate
    assert gates[-1, 2, 0] * np.tanh(c_last) == pytest.approx(h, abs=1e-14)
    assert pred == pytest.approx(pred_want, abs=1e-14)


def test_predict_series_divergence_guard(rng):
    cfg = tiny_config(input_size=1, hidden_size=1, num_layers=1)
    net = init_network(cfg)
    net.layers[0].u[0, 0] = math.inf  # 0 * inf at the first step: NaN state
    ds = dataset_from_series(rng.normal(size=12), 4)
    with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
        predict_series(net, ds)
    with pytest.raises(DivergenceError, match="in epoch 4") as info, np.errstate(invalid="ignore"):
        predict_series(net, ds, epoch=4)
    assert info.value.epoch == 4


# ---------------------------------------------------------------- forward


def test_forward_modes(rng):
    cfg = tiny_config(dropout_rate=0.5)
    net = init_network(cfg)
    window = rng.normal(size=(6, 2))
    with pytest.raises(ValueError):
        forward(net, window, mode="banana")
    with pytest.raises(ValueError):
        forward(net, window, mode="train")  # dropout without an RNG
    p_eval, _ = forward(net, window, mode="eval")
    p_eval2, _ = forward(net, window, mode="eval")
    assert p_eval == p_eval2
    p_train, _ = forward(net, window, mode="train", rng=np.random.default_rng(0))
    assert p_train != p_eval  # masks active


def test_forward_train_without_dropout_equals_eval(rng):
    cfg = tiny_config(dropout_rate=0.0)
    net = init_network(cfg)
    window = rng.normal(size=(5, 2))
    p_train, _ = forward(net, window, mode="train")
    p_eval, _ = forward(net, window, mode="eval")
    assert p_train == p_eval


def test_forward_shape_guard(rng):
    net = init_network(tiny_config(input_size=2))
    with pytest.raises(DataError):
        forward(net, rng.normal(size=(5, 3)))


def test_inverted_dropout_mask_is_unbiased():
    # inverted masks divide survivors by the keep rate, so the mean is ~1
    from marketcast.lstm import _draw_masks

    cfg = tiny_config(hidden_size=2000, dropout_rate=0.3, num_layers=1)
    mask = _draw_masks(cfg, np.random.default_rng(0))[0]
    assert mask.mean() == pytest.approx(1.0, abs=0.05)
    kept = mask > 0
    assert mask[kept].min() == pytest.approx(1.0 / 0.7, rel=1e-12)


# ---------------------------------------------------------------- gradients


def flat_params(net):
    return net.parameters()


def loss_on_window(net, window, target, with_dropout):
    rng = np.random.default_rng(99) if with_dropout else None
    mode = "train" if with_dropout else "eval"
    pred, caches = forward(net, window, mode=mode, rng=rng)
    return (pred - target) ** 2, pred, caches


# W 7 runs spans of 3, 3 and 1 steps. At 3 layers the middle one reads a dropped
# input and hands a masked gradient down; two-layer cases keep the bare W-dropout id
@pytest.mark.parametrize("w, dropout, num_layers", [
    pytest.param(w, dropout, layers, id=f"{w}-{dropout}" + ("" if layers == 2 else f"-depth{layers}"))
    for layers in (1, 2, 3) for w in (1, 2, 6, 7) for dropout in (0.0, 0.25)
])
def test_backward_matches_finite_differences(w, dropout, num_layers):
    cfg = tiny_config(input_size=2, hidden_size=3, num_layers=num_layers, dropout_rate=dropout, seed=4)
    net = init_network(cfg)
    rng = np.random.default_rng(1)
    window = rng.normal(size=(w, 2))
    target = 0.37

    _, pred, caches = loss_on_window(net, window, target, dropout > 0)
    grads = backward(net, caches, np.array([2.0 * (pred - target)]))
    params = flat_params(net)
    assert len(grads) == len(params)

    h = 1e-6
    worst = 0.0
    for arr, grad in zip(params, grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up, _, _ = loss_on_window(net, window, target, dropout > 0)
            flat[k] = orig - h
            dn, _, _ = loss_on_window(net, window, target, dropout > 0)
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(gflat[k]), 1e-8)
            worst = max(worst, abs(fd - gflat[k]) / denom)
    assert worst < 1e-4


def test_backward_rejects_a_cache_of_another_depth_or_batch(rng):
    net = init_network(tiny_config(input_size=2, hidden_size=3))
    _, cache = forward(net, rng.normal(size=(5, 2)), mode="train", rng=rng)
    with pytest.raises(DataError, match=r"shape \(2,\) does not match batch 1"):
        backward(net, cache, np.ones(2))
    with pytest.raises(DataError, match="depth"):
        backward(init_network(tiny_config(input_size=2, hidden_size=3, num_layers=3)), cache, np.ones(1))


def test_reused_buffers_give_fresh_gradients(rng):
    """Batches that share one group's cache (as in a training run) get the
    gradients a fresh group gives, across a change of batch size too."""
    cfg = tiny_config(input_size=2, hidden_size=5, dropout_rate=0.3)
    net = init_network(cfg)
    group = lstm._LayerGroup(net)
    for size in (6, 6, 4, 6):
        x = rng.normal(size=(size, 7, 2)).transpose(1, 2, 0)
        masks = lstm._draw_masks(cfg, rng)
        dpred = rng.normal(size=size)
        preds = group.forward(x, masks)
        grads = group.gradients(dpred)
        fresh = lstm._LayerGroup(net)
        assert np.array_equal(preds, fresh.forward(x, masks))
        for g, fresh_g in zip(grads, fresh.gradients(dpred)):
            assert np.array_equal(g, fresh_g)


def test_cache_arrays_are_reused_for_one_shape(rng):
    """Two training forwards of one shape write the same gate, c and c_ends
    arrays; a new batch size replaces them."""
    cfg = tiny_config(input_size=2, hidden_size=5)
    net = init_network(cfg)
    masks = lstm._draw_masks(cfg, rng)
    group = lstm._LayerGroup(net)
    cache = group.cache

    def arrays():
        return cache["gates"] + cache["c"] + cache["c_ends"]

    group.forward(rng.normal(size=(7, 2, 6)), masks)
    before = arrays()
    assert [g.shape for g in cache["gates"]] == [(7, 4 * cfg.hidden_size, 6)] * cfg.num_layers
    # W 7: a ring of 3 slots, and the ends of the spans of 3, 3 and 1 steps
    assert [c.shape for c in cache["c"]] == [(3, cfg.hidden_size, 6)] * cfg.num_layers
    assert [c.shape for c in cache["c_ends"]] == [(3, cfg.hidden_size, 6)] * cfg.num_layers
    group.forward(rng.normal(size=(7, 2, 6)), masks)
    assert all(new is old for new, old in zip(arrays(), before))
    group.forward(rng.normal(size=(7, 2, 4)), masks)
    assert not any(new is old for new, old in zip(arrays(), before))


@pytest.mark.parametrize("w", [5, 9, 216])
def test_rebuilt_c_matches_the_recursion_over_cached_gates(rng, monkeypatch, w):
    """c_ends and every c backward rebuilds equal, bit for bit, c_t = f_t c_{t-1}
    + i_t g_t stepped over the gates the forward cached."""
    cfg = tiny_config(input_size=2, hidden_size=4, num_layers=2, dropout_rate=0.2)
    net = init_network(cfg)
    hs = cfg.hidden_size
    group = lstm._LayerGroup(net)
    group.forward(rng.normal(size=(w, 2, 3)), lstm._draw_masks(cfg, rng))
    cache = group.cache
    span = math.isqrt(w - 1) + 1
    want = []  # want[k][t]: layer k's c_t
    for gates in cache["gates"]:
        c, seq = 0.0, []
        for a in gates:
            c = a[hs : 2 * hs] * c + a[:hs] * a[3 * hs :]
            seq.append(c)
        want.append(seq)
    for k in range(cfg.num_layers):
        assert len(cache["c_ends"][k]) == -(-w // span)
        for j, c_end in enumerate(cache["c_ends"][k]):
            assert np.array_equal(c_end, want[k][min((j + 1) * span, w) - 1])
        last = range((w - 1) // span * span, w)  # the span the forward left in the ring
        assert all(np.array_equal(cache["c"][k][t % span], want[k][t]) for t in last)

    rebuilt = []
    cell = lstm._cell

    def recording_cell(a, hs, c_prev, out):
        cell(a, hs, c_prev, out)
        rebuilt.append(out.copy())

    monkeypatch.setattr(lstm, "_cell", recording_cell)
    backward(net, cache, rng.normal(size=3))
    # stepping back to each span start t > 0, the layers top-down rebuild
    # the span before it
    expected = [
        want[k][t - span + j]
        for t in range(w - 1, 0, -1)
        if t % span == 0
        for k in range(cfg.num_layers - 1, -1, -1)
        for j in range(span)
    ]
    assert len(rebuilt) == len(expected) == (-(-w // span) - 1) * span * cfg.num_layers
    assert all(np.array_equal(got, c) for got, c in zip(rebuilt, expected))


# ---------------------------------------------------------------- adam


def test_adam_first_steps_match_closed_form():
    p = [np.array([1.0, -2.0])]
    g1 = [np.array([0.5, 0.5])]
    state = AdamState.for_params(p)
    state = adam_step(p, g1, state, lr=0.1)
    # t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps) ~ lr * sign
    m_hat = 0.5
    v_hat = 0.25
    want = np.array([1.0, -2.0]) - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p[0], want, rtol=1e-12)
    assert state.t == 1

    g2 = [np.array([-0.5, 1.0])]
    before = p[0].copy()
    m = 0.9 * (0.1 * 0.5) + 0.1 * g2[0]
    v = 0.999 * (0.001 * 0.25) + 0.001 * g2[0] ** 2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    adam_step(p, g2, state, lr=0.1)
    np.testing.assert_allclose(p[0], before - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8), rtol=1e-12)


# ---------------------------------------------------------------- training


def sine_sets(n=40, w=8, split=30):
    series = np.sin(np.arange(n + w) / 3.0)
    full = dataset_from_series(series, w)
    idx = np.arange(len(full))
    return full.subset(idx < split), full.subset(idx >= split)


def test_train_deterministic_by_seed():
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, hidden_size=4, dropout_rate=0.2, max_epochs=6, patience=6, seed=3)
    net_a, hist_a = train(init_network(cfg), train_set, val_set, cfg)
    net_b, hist_b = train(init_network(cfg), train_set, val_set, cfg)
    assert hist_a.train_losses == hist_b.train_losses
    assert hist_a.val_losses == hist_b.val_losses
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        np.testing.assert_array_equal(pa, pb)


def test_train_seed_changes_trajectory():
    train_set, val_set = sine_sets()
    cfg_a = tiny_config(input_size=1, dropout_rate=0.2, max_epochs=3, patience=3, seed=0)
    cfg_b = tiny_config(input_size=1, dropout_rate=0.2, max_epochs=3, patience=3, seed=1)
    _, hist_a = train(init_network(cfg_a), *sine_sets(), cfg_a)
    _, hist_b = train(init_network(cfg_b), *sine_sets(), cfg_b)
    assert hist_a.train_losses != hist_b.train_losses


def test_train_empty_val_runs_exactly_max_epochs():
    train_set, _ = sine_sets()
    cfg = tiny_config(input_size=1, max_epochs=4, patience=0)
    _, hist = train(init_network(cfg), train_set, empty_dataset(8), cfg)
    assert len(hist.train_losses) == 4
    assert all(math.isnan(v) for v in hist.val_losses)
    assert hist.best_epoch == 3


def test_train_loss_decreases_on_learnable_signal():
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, hidden_size=8, max_epochs=30, patience=30, learning_rate=0.02, seed=0)
    _, hist = train(init_network(cfg), train_set, val_set, cfg)
    assert hist.train_losses[-1] < hist.train_losses[0] * 0.5


def test_early_stopping_restores_best_weights():
    train_set, val_set = sine_sets()
    cfg = tiny_config(
        input_size=1, hidden_size=6, max_epochs=40, patience=3, learning_rate=0.3, seed=2
    )
    net, hist = train(init_network(cfg), train_set, val_set, cfg)
    assert len(hist.val_losses) <= 40
    best = min(hist.val_losses)
    assert hist.val_losses[hist.best_epoch] == best
    # train scores validation through predict_series too, so the restored
    # weights reproduce the best epoch's loss exactly
    diff = predict_series(net, val_set) - val_set.targets
    assert float(diff @ diff) / len(diff) == best
    if len(hist.val_losses) < 40:  # stopped early: patience exhausted after the best epoch
        assert len(hist.val_losses) >= hist.best_epoch + cfg.patience


@pytest.mark.parametrize(
    "losses, patience, epochs, best_epoch",
    [
        ([3, 2, 2, 2, 2, 2], 0, 3, 1),  # a tie is no improvement; patience 0 acts as 1
        ([3, 2, 2, 2, 2, 2], 1, 3, 1),
        ([3, 2, 4, 1, 5, 5, 5, 5, 5, 5], 3, 7, 3),
    ],
)
def test_early_stopping_stops_at_the_exact_epoch(monkeypatch, losses, patience, epochs, best_epoch):
    """Scripted validation losses pin the stop epoch, the best epoch and the restored weights."""
    snapshots = []

    def scripted(network, windows, epoch=None, team=None):
        snapshots.append([p.copy() for p in network.parameters()])
        # every prediction is off by sqrt(loss), so the validation MSE is the scripted loss
        return windows.targets + math.sqrt(losses[epoch])

    monkeypatch.setattr(lstm, "predict_series", scripted)
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, max_epochs=len(losses), patience=patience)
    net, hist = train(init_network(cfg), train_set, val_set, cfg)
    assert len(hist.train_losses) == len(hist.val_losses) == len(snapshots) == epochs
    assert hist.best_epoch == best_epoch
    for param, saved in zip(net.parameters(), snapshots[best_epoch], strict=True):
        np.testing.assert_array_equal(param, saved)
    # the run trained past the best epoch, so restoring it changed the weights
    assert any(not np.array_equal(a, b) for a, b in zip(snapshots[best_epoch], snapshots[-1]))


def test_train_divergence_raises():
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, learning_rate=1e200, max_epochs=8, patience=8, seed=0)
    with pytest.raises(DivergenceError), np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(init_network(cfg), train_set, val_set, cfg)


def test_train_rejects_validation_windows_of_the_wrong_width(monkeypatch):
    """The width is checked before the first batch, not after an epoch of
    training: every batch draws its masks in this process, on any team."""
    batches = []
    draw_masks = lstm._draw_masks

    def counting_draw_masks(*args, **kwargs):
        batches.append(1)
        return draw_masks(*args, **kwargs)

    monkeypatch.setattr(lstm, "_draw_masks", counting_draw_masks)
    train_set, _ = sine_sets()
    cfg = tiny_config(input_size=1, max_epochs=1, patience=1)
    val_set = WindowedDataset(inputs=np.zeros((4, 8, 3)), targets=np.zeros(4), window_size=8, horizon=1)
    with pytest.raises(DataError, match="validation windows have 3 features, config expects 1"):
        train(init_network(cfg), train_set, val_set, cfg)
    assert batches == []


def test_train_rejects_empty_training_set():
    cfg = tiny_config(input_size=1)
    with pytest.raises(DataError):
        train(init_network(cfg), empty_dataset(8), empty_dataset(8), cfg)


# ---------------------------------------------------------------- prediction


def test_predict_series_matches_single_forward(rng):
    cfg = tiny_config(input_size=1, seed=5)
    net = init_network(cfg)
    ds = dataset_from_series(rng.normal(size=EVAL_CHUNK + 30), 8)
    assert len(ds) > EVAL_CHUNK  # the eval chunk boundary is crossed
    batch = predict_series(net, ds)
    singles = np.array([forward(net, win, mode="eval")[0] for win in ds.inputs])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_predict_series_independent_of_eval_chunk(rng, monkeypatch, chunk):
    """Chunking alone leaves every prediction bit-identical.

    One hidden unit and one input feature make every product the forward
    pass hands to BLAS a single term, so the batch-size-dependent kernel
    choice (gemv for a batch of one, other kernels for a few) cannot reorder a
    sum and what is compared is only how predict_series splits and reassembles.
    """
    cfg = tiny_config(input_size=1, hidden_size=1, seed=3)
    net = init_network(cfg)
    ds = dataset_from_series(rng.normal(size=58), 8)
    assert len(ds) == 50
    monkeypatch.setattr(lstm, "EVAL_CHUNK", len(ds))
    whole = predict_series(net, ds)
    monkeypatch.setattr(lstm, "EVAL_CHUNK", chunk)
    assert np.array_equal(predict_series(net, ds), whole)


def test_predict_series_memory_bounded_by_eval_chunk(rng, monkeypatch):
    # eval, validation included, keeps nothing per step: one
    # (4H, 2 * EVAL_CHUNK) gate slab per layer is reused, and the peak
    # measured 1.28 MiB
    monkeypatch.setattr(lstm, "_cpu_count", lambda: 1)
    cfg = LstmConfig(input_size=1, hidden_size=64, num_layers=2, seed=0)
    net = init_network(cfg)
    ds = WindowedDataset(
        inputs=rng.normal(size=(600, 216, 1)), targets=np.zeros(600), window_size=216, horizon=1
    )
    tracemalloc.start()
    try:
        preds = predict_series(net, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(preds))
    assert peak < 2 * 2**20


def test_training_step_caches_only_gates(rng, monkeypatch):
    """One training forward and backward at the paper's shape stays within
    the gates it caches (27 MiB), c at ceil(sqrt(W)) span ends and in a ring
    of as many slots (0.9 MiB), and small per-step arrays: the peak measured
    29.1 MiB. Caching c at every step peaked at 34.9 MiB, and caching h,
    tanh(c), the dropped outputs and a d_in sequence as well at 61.6 MiB.
    In-process, the layers hand each other one step at a time, so no
    inter-layer sequence is allocated."""
    monkeypatch.setattr(lstm, "_cpu_count", lambda: 1)
    cfg = LstmConfig(input_size=1, hidden_size=64, num_layers=2, dropout_rate=0.2, seed=0)
    net = init_network(cfg)
    x = rng.normal(size=(216, 1, 32))
    masks = lstm._draw_masks(cfg, rng)
    tracemalloc.start()
    try:
        group = lstm._LayerGroup(net)
        group.forward(x, masks)
        grads = group.gradients(rng.normal(size=32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert peak < 30 * 2**20


def test_cached_and_eval_forward_agree(rng):
    """Without masks the training forward and the eval forward run the same
    arithmetic, one writing W slots of the cache and the other one slot."""
    cfg = tiny_config(input_size=3, hidden_size=6, num_layers=3)
    group = lstm._LayerGroup(init_network(cfg))
    x = rng.normal(size=(9, 11, 3))
    cached = group.forward(x.transpose(1, 2, 0), [None] * cfg.num_layers)
    fresh = group.predict(x, [(0, len(x))])
    assert group.cache["gates"][0].shape[0] == 11
    assert np.array_equal(cached, fresh)


def test_saturated_gates_are_exact_and_silent(rng):
    """Pre-activations of +-800 give sigmoid gates of exactly 1 and 0.

    exp(800) overflows to inf inside the sigmoid; that must neither warn
    nor leak a non-finite value into the state.
    """
    cfg = tiny_config(input_size=1, hidden_size=4, dropout_rate=0.2)
    net = init_network(cfg)
    hs = cfg.hidden_size
    sign = np.where(np.arange(3 * hs) % 2 == 0, 1.0, -1.0)
    for layer in net.layers:
        layer.w[:] = 0.0
        layer.u[:] = 0.0
        layer.b[: 3 * hs] = 800.0 * sign
        layer.b[3 * hs :] = 0.5
    ds = dataset_from_series(rng.normal(size=30), 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, cache = forward(net, ds.inputs[0], mode="eval")
        preds = predict_series(net, ds)
        group = lstm._LayerGroup(net)
        batch = group.forward(ds.inputs[:4].transpose(1, 2, 0), lstm._draw_masks(cfg, np.random.default_rng(0)))
        grads = group.gradients(np.ones(4))
    for gates in cache["gates"]:
        assert np.array_equal(gates[:, : 3 * hs, 0], np.broadcast_to(sign > 0, (8, 3 * hs)))
    assert np.all(np.isfinite(preds))
    assert np.all(np.isfinite(batch))
    assert all(np.all(np.isfinite(g)) for g in grads)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, max_epochs=2, patience=2, seed=6)
    net, _ = train(init_network(cfg), train_set, val_set, cfg)
    path = tmp_path / "ck.npz"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    for pa, pb in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(pa, pb)
    ds = dataset_from_series(np.sin(np.arange(20) / 3.0), 8)
    np.testing.assert_array_equal(predict_series(net, ds), predict_series(loaded, ds))


def test_checkpoint_version_gate(tmp_path):
    cfg = tiny_config(input_size=1)
    net = init_network(cfg)
    path = tmp_path / "ck.npz"
    save_checkpoint(net, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = 999
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "bad.npz")


def test_checkpoint_version_2_rejected(tmp_path):
    """A version-2 file, which may carry Adam moments, is refused."""
    cfg = tiny_config(input_size=1)
    net = init_network(cfg)
    arrays = {"dense_w": net.dense_w, "dense_b": net.dense_b}
    for k, layer in enumerate(net.layers):
        arrays.update({f"layer{k}_W": layer.w, f"layer{k}_U": layer.u, f"layer{k}_b": layer.b})
    meta = {"version": 2, "config": asdict(cfg), "has_adam": False, "adam_t": 0}
    np.savez(tmp_path / "v2.npz", meta=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(DataError, match="unsupported checkpoint version 2"):
        load_checkpoint(tmp_path / "v2.npz")


# ---------------------------------------------------------------- layer workers


def paper_shape_sets(n=100, w=216, features=1, n_val=40):
    """n training windows (at batch 32 the last batch is smaller), n_val
    validation windows and 30 test windows of a random walk."""
    rng = np.random.default_rng(11)
    series = np.cumsum(rng.normal(size=(n + n_val + 30 + w, features)), axis=0) / 10
    inputs = np.stack([series[i : i + w] for i in range(n + n_val + 30)])
    full = WindowedDataset(inputs=inputs, targets=series[w : w + len(inputs), 0], window_size=w, horizon=1)
    idx = np.arange(len(full))
    return full.subset(idx < n), full.subset((idx >= n) & (idx < n + n_val)), full.subset(idx >= n + n_val)


def train_with_workers(monkeypatch, workers, cfg, train_set, val_set, test_set):
    """Train on `workers` layer workers (one layer group in this process for
    1) and make the validation and test predictions on them too, as the
    pipeline does; returns the network, its history and those predictions."""
    monkeypatch.setattr(lstm, "_cpu_count", lambda: workers)
    net = init_network(cfg)
    with layer_workers(net, train_set) as team:
        net, hist = train(net, train_set, val_set, cfg, team=team)
        preds = [predict_series(net, windows, team=team) for windows in (val_set, test_set)]
    assert isinstance(team, _lstm_workers.Team) == (workers > 1)
    if workers > 1:
        assert len(team.peaks_kib) == workers
    return net, hist, preds


WORKER_CASES = {
    "paper-shape": (dict(input_size=1, hidden_size=64, num_layers=2, dropout_rate=0.2, max_epochs=2, patience=2),
                    dict()),
    "3-layers-on-2-workers": (dict(input_size=3, hidden_size=6, num_layers=3, dropout_rate=0.2, batch_size=8,
                                   max_epochs=3, patience=3), dict(n=30, w=20, features=3, n_val=12)),
    # as many workers as layers; CI also runs the worker tests pinned to one
    # CPU, where the handoffs must hold when a worker waits for one that is
    # not running
    "3-layers-on-3-workers": (dict(input_size=1, hidden_size=6, num_layers=3, dropout_rate=0.2, batch_size=8,
                                   max_epochs=3, patience=3), dict(n=30, w=20, n_val=12)),
    "dropout-0": (dict(input_size=1, hidden_size=8, num_layers=2, dropout_rate=0.0, batch_size=8, max_epochs=3,
                       patience=3), dict(n=30, w=20)),
    "patience-stop": (dict(input_size=1, hidden_size=6, num_layers=2, dropout_rate=0.2, batch_size=8,
                           learning_rate=0.3, max_epochs=40, patience=2, seed=2), dict(n=30, w=9, n_val=12)),
    "empty-validation": (dict(input_size=1, hidden_size=8, num_layers=2, dropout_rate=0.2, batch_size=8,
                              max_epochs=2, patience=0), dict(n=30, w=20, n_val=0)),
}


@pytest.mark.parametrize("case", WORKER_CASES)
def test_training_workers_are_bit_identical_to_in_process(monkeypatch, worker_procs, case):
    """Workers train the parameters and history that in-process training
    does, and make its validation and test predictions, bit for bit; they
    have exited when the team closes."""
    config, data = WORKER_CASES[case]
    cfg = LstmConfig(**config)
    train_set, val_set, test_set = paper_shape_sets(**data)
    workers = 3 if case.endswith("3-workers") else 2
    runs = [train_with_workers(monkeypatch, count, cfg, train_set, val_set, test_set) for count in (1, workers)]
    assert len(worker_procs) == workers and all(proc.poll() is not None for proc in worker_procs)
    assert_same_bits(*runs)
    hist = runs[0][1]
    if case == "patience-stop":
        # the restored weights are not the last epoch's: the team predicts from them
        assert hist.best_epoch < len(hist.train_losses) - 1 < cfg.max_epochs - 1


def assert_same_bits(run_a, run_b):
    """Two `train_with_workers` results hold the same parameters, history and
    predictions, bit for bit."""
    (net_a, hist_a, preds_a), (net_b, hist_b, preds_b) = run_a, run_b
    for pa, pb in zip(net_a.parameters(), net_b.parameters(), strict=True):
        assert np.array_equal(pa, pb)
    assert hist_a.train_losses == hist_b.train_losses
    assert np.array_equal(hist_a.val_losses, hist_b.val_losses, equal_nan=True)
    assert hist_a.best_epoch == hist_b.best_epoch
    for a, b in zip(preds_a, preds_b, strict=True):
        assert np.array_equal(a, b)


@st.composite
def small_runs(draw):
    """A small config and `paper_shape_sets` arguments: a last batch smaller
    than the others, and an empty or a non-empty validation set."""
    batch = draw(st.integers(2, 6))
    n = batch * draw(st.integers(1, 3)) + draw(st.integers(1, batch - 1))
    cfg = LstmConfig(input_size=draw(st.integers(1, 2)), hidden_size=draw(st.integers(1, 8)),
                     num_layers=draw(st.integers(1, 4)), dropout_rate=draw(st.sampled_from([0.0, 0.3])),
                     learning_rate=0.05, batch_size=batch, max_epochs=3, patience=1, seed=draw(st.integers(0, 9)))
    return cfg, dict(n=n, w=draw(st.integers(1, 12)), features=cfg.input_size, n_val=draw(st.sampled_from([0, 7])))


# each example starts up to three worker interpreters, about 0.15 s each
@settings(max_examples=20)
@given(small_runs())
def test_layer_workers_train_and_predict_what_one_group_does(run):
    """One layer group in this process and min(layers, 3) layer workers train
    the same parameters and history, and make the same predictions."""
    cfg, data = run
    sets = paper_shape_sets(**data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_bits(*(train_with_workers(monkeypatch, workers, cfg, *sets)
                           for workers in (1, min(cfg.num_layers, 3))))


def test_a_worker_divergence_raises_what_in_process_raises(monkeypatch, worker_procs):
    train_set, val_set = sine_sets()
    cfg = tiny_config(input_size=1, learning_rate=1e200, max_epochs=8, patience=8, seed=0)
    raised = []
    for workers in (1, 2):
        monkeypatch.setattr(lstm, "_cpu_count", lambda: workers)
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            train(init_network(cfg), train_set, val_set, cfg)
        raised.append((str(info.value), info.value.epoch))
    assert raised[0] == raised[1]
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


def test_a_non_finite_prediction_on_a_worker_raises_what_in_process_raises(monkeypatch, worker_procs):
    """A NaN in validation window 150, which worker 1 predicts (the first
    call dealt to it is windows 128 to 191), fails training with the
    DivergenceError that in-process validation raises."""
    train_set, val_set, _ = paper_shape_sets(n=30, w=20, n_val=200)
    inputs = np.array(val_set.inputs)
    inputs[150, 3, 0] = np.nan
    val_set = WindowedDataset(inputs=inputs, targets=val_set.targets, window_size=20, horizon=1)
    cfg = LstmConfig(input_size=1, hidden_size=6, num_layers=2, batch_size=8, max_epochs=2, patience=2)
    raised = []
    for workers in (1, 2):
        monkeypatch.setattr(lstm, "_cpu_count", lambda: workers)
        with pytest.raises(DivergenceError) as info:
            train(init_network(cfg), train_set, val_set, cfg)
        raised.append((str(info.value), info.value.epoch))
    assert raised[0] == raised[1] == ("non-finite LSTM prediction in epoch 0", 0)
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


@pytest.mark.parametrize("victim", [0, 1])
def test_a_worker_killed_during_eval_fails_the_run_without_hanging(monkeypatch, worker_procs, victim):
    """SIGKILL to either worker once the first validation call is sent to
    worker 0: train raises at once, naming the exit status."""
    monkeypatch.setattr(lstm, "_cpu_count", lambda: 2)
    send = _lstm_workers.Team._send

    def send_then_kill(team, j, kind, value=None, data=None):
        send(team, j, kind, value, data)
        if kind == "eval" and team.procs[victim].poll() is None:
            os.kill(team.procs[victim].pid, signal.SIGKILL)

    monkeypatch.setattr(_lstm_workers.Team, "_send", send_then_kill)
    train_set, val_set, _ = paper_shape_sets(n=30, w=20, n_val=300)
    cfg = LstmConfig(input_size=1, hidden_size=6, num_layers=2, batch_size=8, max_epochs=2, patience=2)
    start = time.perf_counter()
    with pytest.raises(ModelFitError, match=f"LSTM layer worker {victim} exited with status -9"):
        train(init_network(cfg), train_set, val_set, cfg)
    assert time.perf_counter() - start < 30
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


@pytest.mark.parametrize("victim", [0, 1])
def test_a_killed_worker_fails_the_run_without_hanging(monkeypatch, worker_procs, victim):
    """SIGKILL to either worker mid-run: the other may be waiting on it for a
    step, and train still raises at once, naming the exit status."""
    monkeypatch.setattr(lstm, "_cpu_count", lambda: 2)
    train_set, _, _ = paper_shape_sets(n=64, w=40)
    cfg = LstmConfig(input_size=1, hidden_size=16, num_layers=2, batch_size=8, max_epochs=500, patience=0)

    def kill():
        started = time.monotonic()
        while len(worker_procs) < 2 and time.monotonic() - started < 10:
            time.sleep(0.01)
        time.sleep(1.0)
        os.kill(worker_procs[victim].pid, signal.SIGKILL)

    killer = threading.Thread(target=kill, daemon=True)
    killer.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ModelFitError, match=f"LSTM layer worker {victim} exited with status -9"):
            train(init_network(cfg), train_set, empty_dataset(40), cfg)
    finally:
        killer.join(timeout=30)
    assert not killer.is_alive()
    assert time.perf_counter() - start < 30
    assert all(proc.poll() is not None for proc in worker_procs)


# a run on two layer workers, still training when the test kills it
_LONG_RUN_ON_WORKERS = """
import numpy as np
from marketcast import lstm
from marketcast.frame import WindowedDataset
lstm._cpu_count = lambda: 2
series = np.cumsum(np.random.default_rng(11).normal(size=104)) / 10
inputs = np.stack([series[i : i + 40, None] for i in range(64)])
windows = WindowedDataset(inputs=inputs, targets=series[40:], window_size=40, horizon=1)
cfg = lstm.LstmConfig(input_size=1, hidden_size=16, batch_size=8, max_epochs=500, patience=0)
lstm.train(lstm.init_network(cfg), windows, windows.subset(np.zeros(64, bool)), cfg)
"""


def _exited(pid: int) -> bool:
    """Whether process `pid` has exited: it is gone, or a zombie that no one has reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def test_workers_exit_when_their_parent_is_killed():
    """SIGKILL to a process training on two workers, mid-run: each worker
    exits within 10 s, whether it waits on the parent or on the worker
    beside it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lstm.__file__)))
    run = subprocess.Popen([sys.executable, "-c", _LONG_RUN_ON_WORKERS], env=dict(os.environ, PYTHONPATH=src))
    workers: list[int] = []
    try:
        started = time.monotonic()
        while len(workers) < 2 and time.monotonic() - started < 30:
            time.sleep(0.05)
            with open(f"/proc/{run.pid}/task/{run.pid}/children") as fh:
                workers = [int(pid) for pid in fh.read().split()]
        assert len(workers) == 2
        time.sleep(1.0)  # both workers are past start-up, training
        run.kill()
        run.wait()
        killed = time.monotonic()
        while not all(map(_exited, workers)) and time.monotonic() - killed < 10:
            time.sleep(0.05)
        assert all(map(_exited, workers))
    finally:
        run.kill()
        run.wait()
        for pid in workers:
            if not _exited(pid):
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def test_a_network_trained_on_workers_maps_only_its_parameters(monkeypatch):
    """The network's arrays stay views into the workers' shared memory after
    they exit; that mapping holds the parameters alone, not the sequences the
    workers hand each other."""
    cfg = LstmConfig(input_size=1, hidden_size=6, num_layers=2, batch_size=8, max_epochs=1, patience=1)
    net, _, _ = train_with_workers(monkeypatch, 2, cfg, *paper_shape_sets(n=30, w=20, n_val=12))
    mapping = net.dense_w
    while not isinstance(mapping, memoryview):
        mapping = mapping.base
    assert len(mapping) <= sum(-(-p.nbytes // 64) * 64 for p in net.parameters())


def test_cpu_count_off_x86_64_is_the_affinity(monkeypatch):
    monkeypatch.setattr(os, "uname", lambda: os.uname_result(("Linux", "host", "6.1", "#1", "aarch64")))
    assert lstm._cpu_count() == len(os.sched_getaffinity(0))
