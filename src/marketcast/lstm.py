"""Two-layer LSTM regressor implemented directly on numpy arrays.

Forward pass, backpropagation through time, inverted dropout, and Adam are
all written out here rather than delegated to a framework, in float64 so the
gradients can be checked against finite differences. The network reads a
window of W timesteps and predicts a single scalar from the final hidden
state of the top layer through a dense head.

Conventions:
  - each layer stores its parameters fused, as the recurrence uses them:
    W (4H x D) maps the layer input, U (4H x H) the previous hidden state,
    and b (4H,) is the bias; the four gates are stacked along the first axis
    in the order (input, forget, output, candidate);
  - the recurrence runs over time-major, feature-major (W, ., batch)
    arrays: a step's gates are one contiguous (4H, batch) slab and each
    gate a contiguous (H, batch) slice of it, so every elementwise ufunc
    runs over flat memory (with the batch axis before the features each
    gate would be a strided view, and the loop bodies take about 1.5x as
    long);
  - dropout is applied to each LSTM layer's output sequence before it feeds
    the layer above (the dense head included); the recurrent path inside a
    layer always sees the undropped state;
  - masks are redrawn once per mini-batch and shared across timesteps;
  - the sigmoid gates are computed in place as 1 / (1 + exp(-a)) on their
    (3H, batch) block, about 3x faster than scipy's expit there and within
    2 ULP of it; exp overflowing to inf for a large negative a gives the
    exact 0;
  - one loop over time runs each forward call, stepping the layers
    bottom-up inside it, and one loop back over time runs `backward`,
    stepping them top-down. At step t each layer writes its gate
    activations into slot t % T of a (T, 4H, batch) array and its cell
    state c into slot t % span of a (span, H, batch) ring;
  - training passes a cache dict, so T = W and span = ceil(sqrt(W))
    (`math.isqrt(W - 1) + 1`, 15 at W 216): the dict keeps every step's
    gates but c only in the ring, plus `c_ends`, the c that ends each span
    (ceil(W / span) slots), and the input windows and the masks, all that
    `backward` reads. After the forward the ring holds the last span.
    Stepping back into an earlier span, backward first rebuilds that span's
    c in the ring from its cached gates, starting from the previous span's
    end (zero for the first span), through `_cell`, which the forward also
    calls, so the bits match: two ufuncs a step, where caching c at every
    step cost 6.75 MB. tanh(c), h = o * tanh(c) and the dropped output
    h * mask are each one ufunc away from gates and c, so backward
    recomputes them one step at a time, h * mask where it is read, and
    hands the layer below its input's gradient one step at a time. At
    W=216, H=64, batch 32 that cache is 29 MB, and one training step peaks
    at about 29 MiB under tracemalloc;
  - backward writes each step's gate gradients over its cached
    activations. `train` runs every epoch's batches itself (there is no
    per-epoch function) and keeps one cache for the whole run: every batch
    overwrites the same arrays, allocated again only when the batch size
    changes (a smaller last batch), the old ones freed first;
  - `predict_series` is the one eval path: it makes the test predictions and
    `train`'s validation predictions alike. Eval passes no cache, so
    T = span = 1: every step reuses one (4H, batch) slot and one c per
    layer, and predicting needs far less memory than a training step. Of n
    windows, the first n - n % EVAL_CHUNK run 2 * EVAL_CHUNK per forward
    call and the rest in one call: half as many trips through the Python
    loop as EVAL_CHUNK-wide calls, with the same bits. The call widths do
    not bound the memory; they are tied to EVAL_CHUNK = 64 because they
    decide the last bits of the predictions: OpenBLAS picks its kernel by
    the number of batch columns, so a remainder other than n % 64 would
    move them by a few ULPs (calls of 64 and 128 columns measured
    bit-identical per column).

Checkpoints (version 3) store each layer under layer{L}_W, layer{L}_U and
layer{L}_b, the head under dense_w and dense_b, and no optimizer state.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, DivergenceError
from .frame import WindowedDataset

__all__ = [
    "LstmConfig",
    "LstmLayer",
    "LstmNetwork",
    "AdamState",
    "TrainingHistory",
    "init_network",
    "backward",
    "adam_step",
    "train",
    "predict_series",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 3
# eval runs n - n % EVAL_CHUNK windows in calls of 2 * EVAL_CHUNK and the rest
# in one call; the predictions' last bits depend on it (see the module
# docstring), their memory does not
EVAL_CHUNK = 64
# Adam moment decay rates and denominator guard, the published defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class LstmConfig:
    input_size: int
    hidden_size: int = 64
    num_layers: int = 2
    dropout_rate: float = 0.20
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("input_size", "hidden_size", "num_layers", "batch_size", "max_epochs", "patience", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.input_size < 1:
            raise ValueError("input_size must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.patience <= self.max_epochs:
            raise ValueError("patience must be in [0, max_epochs]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class LstmLayer:
    """Fused parameters of one layer, gates stacked (i, f, o, g) along rows."""

    w: np.ndarray  # (4H, D)
    u: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)


@dataclass
class LstmNetwork:
    layers: list[LstmLayer]
    dense_w: np.ndarray
    dense_b: np.ndarray  # shape (1,)
    config: LstmConfig

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (update in place to train)."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend((layer.w, layer.u, layer.b))
        out.append(self.dense_w)
        out.append(self.dense_b)
        return out


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


@dataclass(frozen=True)
class TrainingHistory:
    train_losses: tuple[float, ...]
    val_losses: tuple[float, ...]
    best_epoch: int


def _rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    init_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(train_ss)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_network(config: LstmConfig) -> LstmNetwork:
    """Fresh network with fan-scaled uniform weights and forget biases at 1.

    Each gate's W and U blocks are drawn in turn, gate by gate, so the
    weights match a per-gate initialisation with the same seed.
    """
    rng, _ = _rng_streams(config.seed)
    h = config.hidden_size
    layers = []
    for layer_idx in range(config.num_layers):
        d = config.input_size if layer_idx == 0 else h
        w = np.empty((4 * h, d))
        u = np.empty((4 * h, h))
        for gate in range(4):
            w[gate * h : (gate + 1) * h] = _glorot(rng, h, d)
            u[gate * h : (gate + 1) * h] = _glorot(rng, h, h)
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0
        layers.append(LstmLayer(w=w, u=u, b=b))
    dense_w = _glorot(rng, h, 1)[:, 0]
    dense_b = np.zeros(1)
    return LstmNetwork(layers=layers, dense_w=dense_w, dense_b=dense_b, config=config)


def _draw_masks(config: LstmConfig, rng: np.random.Generator | None) -> list[np.ndarray | None]:
    if config.dropout_rate == 0.0:
        return [None] * config.num_layers
    if rng is None:
        raise ValueError("train-mode forward with dropout needs an RNG")
    keep = 1.0 - config.dropout_rate
    return [(rng.random(config.hidden_size) < keep) / keep for _ in range(config.num_layers)]


def _cell(a: np.ndarray, hs: int, c_prev, out: np.ndarray) -> None:
    """c = f * c_prev + i * g from one step's activated gates `a`, into `out`.

    The forward and backward's rebuild both call it, so a rebuilt c has the
    bits the forward computed.
    """
    np.multiply(a[hs : 2 * hs], c_prev, out=out)
    out += a[:hs] * a[3 * hs :]


def _forward_batch(network: LstmNetwork, x: np.ndarray, masks: list[np.ndarray | None], cache: dict | None = None):
    """Batched forward over windows x of shape (batch, W, features); returns
    the predictions (batch,).

    One loop over time steps every layer, bottom-up, through step t before
    step t + 1. With a `cache` dict each layer writes its gate activations
    at step t into slot t of a (W, 4H, batch) array and c into slot
    t % span of a (span, H, batch) ring, span = ceil(sqrt(W)), and copies
    the c that ends each span into `c_ends`. The dict keeps those arrays, the
    input windows and the masks for `backward`, and the next call of the
    same shape overwrites them. Without one, every step reuses
    one slot of each.
    """
    inputs = np.ascontiguousarray(x.transpose(1, 2, 0))
    w_steps, _, b = inputs.shape
    hs = network.config.hidden_size
    training = cache is not None
    slots = w_steps if training else 1
    span = math.isqrt(w_steps - 1) + 1 if training else 1
    if cache is None:
        cache = {}
    if "gates" not in cache or cache["gates"][0].shape != (slots, 4 * hs, b):
        cache.clear()  # free the old shape's arrays before allocating the new
        cache["gates"] = [np.empty((slots, 4 * hs, b)) for _ in network.layers]
        cache["c"] = [np.empty((span, hs, b)) for _ in network.layers]
        if training:
            cache["c_ends"] = [np.empty((-(-w_steps // span), hs, b)) for _ in network.layers]
    gates, c_seqs, c_ends = cache["gates"], cache["c"], cache.get("c_ends")
    h = [np.zeros((hs, b)) for _ in network.layers]
    dropped = [None if mask is None else np.empty((hs, b)) for mask in masks]
    tc = np.empty((hs, b))
    # exp(-a) overflows to inf for a large negative a, where 1/(1+inf) = 0
    # is the correct gate value
    with np.errstate(over="ignore"):
        for t in range(w_steps):
            slot = t % slots
            span_end = training and (t % span == span - 1 or t == w_steps - 1)
            inp = inputs[t]
            for k, (layer, mask) in enumerate(zip(network.layers, masks)):
                a, c = gates[k][slot], c_seqs[k][t % span]
                np.matmul(layer.w, inp, out=a)
                a += layer.b[:, None]
                a += layer.u @ h[k]
                s = a[: 3 * hs]
                np.negative(s, out=s)
                np.exp(s, out=s)
                s += 1.0
                np.reciprocal(s, out=s)
                g = a[3 * hs :]
                np.tanh(g, out=g)
                _cell(a, hs, c_seqs[k][(t - 1) % span] if t else 0.0, c)
                if span_end:
                    c_ends[k][t // span] = c
                np.tanh(c, out=tc)
                np.multiply(a[2 * hs : 3 * hs], tc, out=h[k])
                inp = h[k] if mask is None else np.multiply(h[k], mask[:, None], out=dropped[k])
    cache.update(x=inputs, masks=masks)
    return network.dense_w @ inp + network.dense_b[0]


def backward(network: LstmNetwork, cache: dict, dloss_dpred) -> list[np.ndarray]:
    """Gradients for every parameter, ordered like network.parameters().

    `cache` is the dict a training `_forward_batch` filled, and
    `dloss_dpred` the loss gradient with respect to each window's scalar
    prediction (shape (batch,)). One loop runs back over time and steps the
    layers top-down, the head's gradient seeding the top layer's carry. Each
    layer carries tanh(c) and h one step back, recomputed from gates and c
    its step has not yet overwritten, and hands the layer below the gradient
    of its input at that step only; the layer above reads h * mask in place.
    Stepping back into an earlier span, a layer first rebuilds that span's c
    in the ring from the cached gates and the previous span's end. The cache
    is consumed: each step's gate activations are overwritten with their
    pre-activation gradients, and the ring ends holding the first span's c.
    """
    dpred = np.asarray(dloss_dpred, dtype=float)
    gates, c_seqs, c_ends, masks, x = cache["gates"], cache["c"], cache["c_ends"], cache["masks"], cache["x"]
    if len(gates) != len(network.layers):
        raise DataError("cache does not match network depth")
    w_steps, _, b = x.shape
    hs = network.config.hidden_size
    span = len(c_seqs[0])
    if dpred.shape != (b,):
        raise DataError(f"loss gradient shape {dpred.shape} does not match batch {b}")

    layers = network.layers
    top = len(layers) - 1
    dw = [np.zeros_like(layer.w) for layer in layers]
    du = [np.zeros_like(layer.u) for layer in layers]
    dw_t = [np.empty_like(layer.w) for layer in layers]
    du_t = [np.empty_like(layer.u) for layer in layers]
    mult = np.empty((3 * hs, b))
    below = np.empty((hs, b))  # the dropped output of the layer below at the step
    # the head reads the top layer's last step only: its gradient seeds that layer's recurrent carry
    dh_rec = [np.zeros((hs, b)) for _ in layers]
    np.multiply.outer(network.dense_w, dpred, out=dh_rec[top])
    if masks[top] is not None:
        dh_rec[top] *= masks[top][:, None]
    dc_rec = [np.zeros((hs, b)) for _ in layers]
    # the gradient w.r.t. each layer's undropped output at the step, from the layer above; the top's stays 0
    d_out = [np.zeros((hs, b)) for _ in layers]
    # tanh(c_t) and h_t at step t; the forward leaves the last span's c in the ring
    tc = [np.tanh(c[(w_steps - 1) % span]) for c in c_seqs]
    h = [np.multiply(g[-1, 2 * hs : 3 * hs], tc_k) for g, tc_k in zip(gates, tc)]
    d_dense_w = (h[top] if masks[top] is None else h[top] * masks[top][:, None]) @ dpred  # the head's input
    for t in range(w_steps - 1, -1, -1):
        rebuild = t and t % span == 0
        for k in range(top, -1, -1):
            layer = layers[k]
            c_seq = c_seqs[k]
            if rebuild:  # c_{t-1} ends the previous span: recompute its c
                first = t - span
                c_prev = c_ends[k][first // span - 1] if first else 0.0
                for j in range(span):
                    _cell(gates[k][first + j], hs, c_prev, c_seq[j])
                    c_prev = c_seq[j]
            a = gates[k][t]
            s = a[: 3 * hs]  # the sigmoid gates (i, f, o)
            i, f, o, g = a[:hs], a[hs : 2 * hs], a[2 * hs : 3 * hs], a[3 * hs :]
            dh = d_out[k] + dh_rec[k]
            dc = dh * o * (1.0 - tc[k] * tc[k]) + dc_rec[k]
            dc_rec[k] = dc * f
            dci = dc * i
            # overwrite a with its gradient: each sigmoid gate's multiplier
            # times one s(1 - s) over the block, then the candidate gate
            np.multiply(dc, g, out=mult[:hs])
            np.multiply(dc, c_seq[(t - 1) % span] if t else 0.0, out=mult[hs : 2 * hs])
            np.multiply(dh, tc[k], out=mult[2 * hs :])
            s *= 1.0 - s
            s *= mult
            np.multiply(dci, 1.0 - g * g, out=g)
            dh_rec[k] = layer.u.T @ a
            inp = x[t]  # layer 0 reads the windows, which need no gradient
            if k:  # layer k - 1 has not stepped back yet, so h[k - 1] still holds its h_t
                inp = h[k - 1] if masks[k - 1] is None else np.multiply(h[k - 1], masks[k - 1][:, None], out=below)
                np.matmul(layer.w.T, a, out=d_out[k - 1])
                if masks[k - 1] is not None:
                    d_out[k - 1] *= masks[k - 1][:, None]
            dw[k] += np.matmul(a, inp.T, out=dw_t[k])
            if t:  # step back to t - 1; h_0 = 0 contributes nothing to dU
                np.tanh(c_seq[(t - 1) % span], out=tc[k])
                np.multiply(gates[k][t - 1, 2 * hs : 3 * hs], tc[k], out=h[k])
                du[k] += np.matmul(a, h[k].T, out=du_t[k])
    grads = []
    for k, g in enumerate(gates):
        grads.extend((dw[k], du[k], g.sum(axis=(0, 2))))
    return grads + [d_dense_w, np.array([dpred.sum()])]


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float) -> AdamState:
    """One Adam update, modifying `params` in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient, and state lengths disagree")
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1**state.t
    correction2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def train(network: LstmNetwork, train_set: WindowedDataset, val_set: WindowedDataset, config: LstmConfig):
    """Mini-batch Adam training with early stopping on validation MSE.

    Windows are visited in a seeded random permutation each epoch; dropout
    masks are redrawn per batch. With validation windows, training stops
    once max(patience, 1) epochs (patience 0 acts as 1) have passed since
    the first epoch with the lowest validation loss, whose parameters are
    restored at the end; without them every epoch runs. Returns
    (network, TrainingHistory); the network is updated in place.
    """
    if len(train_set.targets) == 0:
        raise DataError("empty training set")
    x_train = np.asarray(train_set.inputs, dtype=float)
    y_train = np.asarray(train_set.targets, dtype=float)
    # both widths are checked before any batch runs; an empty validation set is never read
    for name, windows in (("training", train_set), ("validation", val_set)):
        if len(windows.targets) and np.shape(windows.inputs)[2] != config.input_size:
            raise DataError(
                f"{name} windows have {np.shape(windows.inputs)[2]} features, config expects {config.input_size}"
            )

    _, rng = _rng_streams(config.seed)
    params = network.parameters()
    state = AdamState.for_params(params)
    # each layer's gates and c (29 MB at W=216, H=64, batch 32), kept for the
    # whole run: allocated afresh, the allocator gives those pages back to the
    # OS between batches, and faulting them in again took about a fifth of
    # each batch
    cache: dict = {}
    n = len(y_train)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch = -1
    best_params: list[np.ndarray] | None = None

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            yb = y_train[idx]
            masks = _draw_masks(config, rng)
            diff = _forward_batch(network, x_train[idx], masks, cache) - yb
            batch_sq = float(diff @ diff)
            if not np.isfinite(batch_sq):
                raise DivergenceError(f"non-finite training loss in epoch {epoch}", epoch=epoch)
            sq_sum += batch_sq
            adam_step(params, backward(network, cache, (2.0 / len(yb)) * diff), state, config.learning_rate)
        train_losses.append(sq_sum / n)

        if len(val_set.targets) == 0:
            val_losses.append(float("nan"))
            best_epoch = epoch
            continue
        diff = predict_series(network, val_set, epoch) - val_set.targets
        val_mse = float(diff @ diff) / len(diff)
        if not np.isfinite(val_mse):
            raise DivergenceError(f"non-finite validation loss in epoch {epoch}", epoch=epoch)
        val_losses.append(val_mse)
        if best_params is None or val_mse < val_losses[best_epoch]:
            best_epoch = epoch
            best_params = [p.copy() for p in params]
        elif epoch - best_epoch >= max(config.patience, 1):
            break

    if best_params is not None:
        for p, saved in zip(params, best_params):
            p[...] = saved
    history = TrainingHistory(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
    )
    return network, history


def predict_series(network: LstmNetwork, windows: WindowedDataset, epoch: int | None = None) -> np.ndarray:
    """Eval-mode one-step predictions for every window, aligned with targets.

    `train` scores validation through it too. The first n - n % EVAL_CHUNK
    windows run 2 * EVAL_CHUNK per forward call (the last such call may hold
    only EVAL_CHUNK), the rest in one call. Raises DivergenceError (tagged
    with `epoch`, when given) if any prediction is not finite.
    """
    inputs = np.asarray(windows.inputs, dtype=float)
    if inputs.shape[2] != network.config.input_size:
        raise DataError(
            f"windows have {inputs.shape[2]} features, network expects {network.config.input_size}"
        )
    none_masks = [None] * network.config.num_layers
    n = len(inputs)
    full = n - n % EVAL_CHUNK
    preds = np.empty(n)
    start = 0
    while start < n:
        stop = min(start + 2 * EVAL_CHUNK, full) if start < full else n
        preds[start:stop] = _forward_batch(network, inputs[start:stop], none_masks)
        start = stop
    if not np.all(np.isfinite(preds)):
        where = "" if epoch is None else f" in epoch {epoch}"
        raise DivergenceError(f"non-finite LSTM prediction{where}", epoch=epoch)
    return preds


def save_checkpoint(network: LstmNetwork, path) -> None:
    """Write a .npz checkpoint.

    Layout: `meta` holds a JSON string with {version, config}; each layer's
    fused weights are stored under layer{L}_W, layer{L}_U and layer{L}_b,
    and the head under dense_w / dense_b. float64 throughout, so a
    save/load round trip is bit-exact.
    """
    arrays: dict[str, np.ndarray] = {}
    for layer_idx, layer in enumerate(network.layers):
        arrays[f"layer{layer_idx}_W"] = layer.w
        arrays[f"layer{layer_idx}_U"] = layer.u
        arrays[f"layer{layer_idx}_b"] = layer.b
    arrays["dense_w"] = network.dense_w
    arrays["dense_b"] = network.dense_b
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(network.config)}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> LstmNetwork:
    """Read a checkpoint written by save_checkpoint and return its network."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {meta['version']}")
        config = LstmConfig(**meta["config"])
        layers = [
            LstmLayer(w=data[f"layer{k}_W"], u=data[f"layer{k}_U"], b=data[f"layer{k}_b"])
            for k in range(config.num_layers)
        ]
        return LstmNetwork(
            layers=layers,
            dense_w=data["dense_w"],
            dense_b=data["dense_b"],
            config=config,
        )
