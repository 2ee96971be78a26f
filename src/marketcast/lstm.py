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
  - a network's parameters are one float64 vector, `flat`, laid out by
    `param_layout` (each layer's W, U and b, then the head); every
    per-parameter array is a view into it, and a layer group trains one
    slice of it, the top one's with the head, in one Adam pass;
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
  - each layer is a pair of steppers, generators that advance one step
    per `next`: `_forward_steps` and `_backward_steps` hold the one copy of
    the layer math. A layer reads its input at step t from inputs[t] and
    writes its output (h_t, or h_t * mask) to outs[t]; backward reads the
    gradient of that output from d_outs[t] and writes its input's gradient
    to d_ins[t]. At step t each layer writes its gate activations into slot
    t % T of a (T, 4H, batch) array and its cell state c into slot
    t % span of a (span, H, batch) ring;
  - `_LayerGroup` is the one driver of the steppers: over a group of
    consecutive layers they run round-robin, one step each: bottom-up
    through step t before step t + 1 forward, top-down back over time.
    Inside a group the layers hand each other one step at a time through
    `_seq`, one (H, batch) buffer seen as a sequence of W steps, so no
    inter-layer sequence is ever allocated;
  - a training forward fills its group's cache, so T = W and
    span = ceil(sqrt(W)) (`math.isqrt(W - 1) + 1`, 15 at W 216): the dict
    keeps every step's gates but c only in the ring, plus `c_ends`, the c
    that ends each span (ceil(W / span) slots), and the batch's inputs,
    masks and outputs, all that the backward reads. After the forward the
    ring holds the last span.
    Stepping back into an earlier span, backward first rebuilds that span's
    c in the ring from its cached gates, starting from the previous span's
    end (zero for the first span), through `_cell`, which the forward also
    calls, so the bits match: two ufuncs a step, where caching c at every
    step cost 6.75 MB. tanh(c), h = o * tanh(c) and the dropped output
    h * mask are each one ufunc away from gates and c, so backward
    recomputes them one step at a time. At W=216, H=64, batch 32 that cache
    is 29 MB, and one training step peaks at about 29 MiB under
    tracemalloc;
  - `train` and `predict_series` drive a team (`layer_workers`): min(layers,
    CPUs) layer workers (`_cpu_count`: the CPUs in this process's affinity,
    Linux only), or, when that is one, one group over every layer in this
    process, which starts nothing. Either way the team trains the
    network's own vector: starting workers moves it into shared memory
    once. Each worker is a fresh interpreter at one BLAS thread that drives
    a group over its own layers (the top one also the head) on those shared
    parameters, with its own Adam state and cache. Between two workers the
    lower one's top layer writes its outputs into a (W, H, batch) sequence
    in shared memory, and the upper one writes their gradients into another.
    Once a span of steps is in, the writer sends one byte on a socket the
    two share, and the reader blocks until it has received it. So layer k
    runs step t while layer k + 1 runs an earlier span, forward and back.
    Each layer's arithmetic stays in one process in the one group's order,
    so the bits are the same. A batch is one request to each worker over its
    socket (the masks the parent drew, the windows to the bottom worker, the
    targets to the top one) and one reply from each: the top group scores the
    batch, as one group over every layer does, and replies with its sum of
    squared errors. The parent checks for divergence, and takes and restores
    the best-weights snapshot in the shared vector while the workers are
    idle; the workers also make the predictions (see `predict_series` below).
    `_lstm_workers` holds the processes, imported only when they start;
  - backward writes each step's gate gradients over its cached
    activations. Each group keeps one cache for the whole run: every batch
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
    bit-identical per column). The layer workers deal those calls out
    whole, each to the next worker to be free, and each worker runs them on
    a group over every layer, on the parameters in shared memory and
    windows sent over its socket. A call's arithmetic is the same in any
    process, and so are the predictions' bits; the parent puts them back in
    order and checks them. `train` validates on its team this way, and the
    pipeline keeps the team for the test predictions, which read the best
    weights `train` restored into the shared parameters.

Checkpoints (version 3) store each layer under layer{L}_W, layer{L}_U and
layer{L}_b, the head under dense_w and dense_b, and no optimizer state.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DivergenceError
from .frame import WindowedDataset

__all__ = [
    "LstmConfig",
    "LstmLayer",
    "LstmNetwork",
    "AdamState",
    "param_layout",
    "TrainingHistory",
    "init_network",
    "backward",
    "adam_step",
    "layer_workers",
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


def param_layout(config: LstmConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Each parameter's checkpoint key and shape, in their order in a
    network's `flat` vector: each layer's W, U and b, then the head."""
    h = config.hidden_size
    layout = []
    for k in range(config.num_layers):
        d = config.input_size if k == 0 else h
        layout += [(f"layer{k}_W", (4 * h, d)), (f"layer{k}_U", (4 * h, h)), (f"layer{k}_b", (4 * h,))]
    return layout + [("dense_w", (h,)), ("dense_b", (1,))]


def _unpack(vector: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of `vector` cut into consecutive arrays of `shapes`."""
    stops = np.cumsum([math.prod(shape) for shape in shapes])
    return [piece.reshape(shape) for piece, shape in zip(np.split(vector, stops[:-1]), shapes)]


@dataclass
class LstmLayer:
    """Fused parameters of one layer, gates (i, f, o, g) along rows: views into the network's `flat`."""

    w: np.ndarray  # (4H, D)
    u: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)


@dataclass
class LstmNetwork:
    """A network's parameters: one float64 vector laid out by `param_layout`.
    The per-parameter arrays are views of it built on each access."""

    config: LstmConfig
    flat: np.ndarray

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order, as views into `flat` (update in place to train)."""
        return _unpack(self.flat, [shape for _, shape in param_layout(self.config)])

    @property
    def layers(self) -> list[LstmLayer]:
        p = self.parameters()
        return [LstmLayer(*p[3 * k : 3 * k + 3]) for k in range(self.config.num_layers)]

    dense_w = property(lambda self: self.parameters()[-2])  # shape (H,)
    dense_b = property(lambda self: self.parameters()[-1])  # shape (1,)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


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
    network = LstmNetwork(config, np.zeros(sum(math.prod(shape) for _, shape in param_layout(config))))
    for layer in network.layers:
        for gate in range(4):
            layer.w[gate * h : (gate + 1) * h] = _glorot(rng, h, layer.w.shape[1])
            layer.u[gate * h : (gate + 1) * h] = _glorot(rng, h, h)
        layer.b[h : 2 * h] = 1.0
    network.dense_w[...] = _glorot(rng, h, 1)[:, 0]
    return network


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


def _seq(buf: np.ndarray, steps: int) -> np.ndarray:
    """`buf` seen as a sequence of `steps` steps that all are `buf` itself.

    Two layers in one process hand each other one step at a time through such
    a sequence; a worker hands the next one a real (W, H, batch) sequence in
    shared memory. The layer steppers index both alike.
    """
    return np.lib.stride_tricks.as_strided(buf, (steps,) + buf.shape, (0,) + buf.strides)


def _cache_arrays(cache: dict, num_layers: int, w_steps: int, hs: int, b: int, training: bool) -> None:
    """Put each layer's gate slots and c ring (and, training, c_ends) in `cache`,
    keeping the arrays already there when their shape still fits."""
    slots = w_steps if training else 1
    span = math.isqrt(w_steps - 1) + 1 if training else 1
    if "gates" in cache and cache["gates"][0].shape == (slots, 4 * hs, b):
        return
    cache.clear()  # free the old shape's arrays before allocating the new
    cache["gates"] = [np.empty((slots, 4 * hs, b)) for _ in range(num_layers)]
    cache["c"] = [np.empty((span, hs, b)) for _ in range(num_layers)]
    cache["c_ends"] = [np.empty((-(-w_steps // span), hs, b)) if training else None for _ in range(num_layers)]


def _forward_steps(layer: LstmLayer, hs: int, gates, c_ring, c_ends, mask, inputs, outs):
    """One layer's forward over a batch, one step per `next`.

    Step t reads the layer's input at inputs[t], writes its gate activations
    into slot t % len(gates) and c into slot t % span of the ring (and, with
    `c_ends`, the c that ends each span there), and its output to outs[t]: h_t,
    or h_t * mask with a mask. The caller holds np.errstate(over="ignore"):
    exp(-a) overflows to inf for a large negative a, where 1/(1+inf) = 0 is the
    correct gate value.
    """
    w_steps, _, b = outs.shape
    slots, span = len(gates), len(c_ring)
    h = np.zeros((hs, b))
    tc = np.empty((hs, b))
    for t in range(w_steps):
        a, c = gates[t % slots], c_ring[t % span]
        np.matmul(layer.w, inputs[t], out=a)
        a += layer.b[:, None]
        a += layer.u @ h
        s = a[: 3 * hs]
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
        g = a[3 * hs :]
        np.tanh(g, out=g)
        _cell(a, hs, c_ring[(t - 1) % span] if t else 0.0, c)
        if c_ends is not None and (t % span == span - 1 or t == w_steps - 1):
            c_ends[t // span] = c
        np.tanh(c, out=tc)
        if mask is None:  # h_t is the output: the next step reads it there
            h = np.multiply(a[2 * hs : 3 * hs], tc, out=outs[t])
        else:
            np.multiply(a[2 * hs : 3 * hs], tc, out=h)
            np.multiply(h, mask[:, None], out=outs[t])
        yield


def _backward_steps(layer: LstmLayer, hs: int, gates, c_ring, c_ends, mask, inputs, outs, d_outs, d_ins,
                    mask_below, dh_rec, dw, du):
    """One layer's backward over a batch a training forward cached: a first
    `next` sets up at the last step, then one step per `next` back from it.

    It carries tanh(c) and h one step back, recomputed from gates and c its
    step has not yet overwritten, and with `outs` hands the layer above its
    output h_t (or h_t * mask) at outs[t] before that layer steps back from t.
    Step t reads the gradient of the layer's undropped output at d_outs[t]
    (all zero for the top layer: the head's gradient seeds its carry
    `dh_rec`), writes the gradient of its input to d_ins[t] (with the mask of
    the layer below applied), and adds into `dw` and `du`. Stepping back into
    an earlier span, it first rebuilds that span's c in the ring from the
    cached gates and the previous span's end. Each step's gate activations
    are overwritten with their pre-activation gradients, and the ring ends
    holding the first span's c.
    """
    w_steps, _, b = gates.shape
    span = len(c_ring)
    mult = np.empty((3 * hs, b))
    dw_t, du_t = np.empty_like(dw), np.empty_like(du)
    dc_rec = np.zeros((hs, b))
    # tanh(c_t) and h_t at step t; the forward leaves the last span's c in the ring
    tc = np.tanh(c_ring[(w_steps - 1) % span])
    own_h = outs is None or mask is not None
    h = np.empty((hs, b)) if own_h else outs[w_steps - 1]
    np.multiply(gates[-1, 2 * hs : 3 * hs], tc, out=h)
    if outs is not None and mask is not None:
        np.multiply(h, mask[:, None], out=outs[w_steps - 1])
    yield
    for t in range(w_steps - 1, -1, -1):
        if t and t % span == 0:  # c_{t-1} ends the previous span: recompute its c
            first = t - span
            c_prev = c_ends[first // span - 1] if first else 0.0
            for j in range(span):
                _cell(gates[first + j], hs, c_prev, c_ring[j])
                c_prev = c_ring[j]
        a = gates[t]
        s = a[: 3 * hs]  # the sigmoid gates (i, f, o)
        i, f, o, g = a[:hs], a[hs : 2 * hs], a[2 * hs : 3 * hs], a[3 * hs :]
        dh = d_outs[t] + dh_rec
        dc = dh * o * (1.0 - tc * tc) + dc_rec
        dc_rec = dc * f
        dci = dc * i
        # overwrite a with its gradient: each sigmoid gate's multiplier
        # times one s(1 - s) over the block, then the candidate gate
        np.multiply(dc, g, out=mult[:hs])
        np.multiply(dc, c_ring[(t - 1) % span] if t else 0.0, out=mult[hs : 2 * hs])
        np.multiply(dh, tc, out=mult[2 * hs :])
        s *= 1.0 - s
        s *= mult
        np.multiply(dci, 1.0 - g * g, out=g)
        dh_rec = layer.u.T @ a
        if d_ins is not None:
            np.matmul(layer.w.T, a, out=d_ins[t])
            if mask_below is not None:
                d_ins[t] *= mask_below[:, None]
        dw += np.matmul(a, inputs[t].T, out=dw_t)
        if t:  # step back to t - 1; h_0 = 0 contributes nothing to dU
            np.tanh(c_ring[(t - 1) % span], out=tc)
            if not own_h:
                h = outs[t - 1]
            np.multiply(gates[t - 1, 2 * hs : 3 * hs], tc, out=h)
            if outs is not None and mask is not None:
                np.multiply(h, mask[:, None], out=outs[t - 1])
            du += np.matmul(a, h.T, out=du_t)
        yield


def _head_backward(dense_w: np.ndarray, gates, c_ring, mask, dpred: np.ndarray, hs: int):
    """The dense head's gradients (dense_w, dense_b) and the top layer's seed
    for its recurrent carry: the head reads that layer's last step only."""
    w_steps = len(gates)
    head_in = gates[-1, 2 * hs : 3 * hs] * np.tanh(c_ring[(w_steps - 1) % len(c_ring)])
    dh_top = np.multiply.outer(dense_w, dpred)
    if mask is not None:
        head_in *= mask[:, None]
        dh_top *= mask[:, None]
    return dh_top, head_in @ dpred, np.array([dpred.sum()])


class _LayerGroup:
    """Layers lo .. hi - 1 of `network`, and its head when no group is above
    them: the one driver of the layer steppers (see the module docstring),
    with the methods `train` and `predict_series` call on a `Team`. It
    trains `params`, its slice of the network's `flat` vector: its layers'
    W, U and b, and at the top the head's too, so the groups of a team tile
    the vector in order. That is the network's own vector in this process,
    and the shared one in a layer worker.

    A layer worker's group is linked to the workers beside it by `below` and
    `above` (None at the bottom and the top; see `_lstm_workers`): through a
    link it reads its input from the group below (`up`) and hands down that
    input's gradients (`down`), posting each span of steps it writes and
    waiting for each span the other side writes.
    """

    def __init__(self, network: LstmNetwork, lo: int = 0, hi: int | None = None, below=None, above=None):
        self.network, self.lo, self.below, self.above = network, lo, below, above
        self.layers, self.hs = network.layers[lo:hi], network.config.hidden_size
        # its layers' parameters, and the head's at the top: one slice of `flat`
        shapes = [shape for _, shape in param_layout(network.config)]
        start = sum(map(math.prod, shapes[: 3 * lo]))
        self.shapes = shapes[3 * lo : 3 * (lo + len(self.layers)) if above else None]
        self.params = network.flat[start : start + sum(map(math.prod, self.shapes))]
        # each layer's gates and c (29 MB at W=216, H=64, batch 32) and the
        # batch `backward` reads, kept across batches: allocated afresh, the
        # allocator gives those pages back to the OS between batches, and
        # faulting them in again took about a fifth of each batch
        self.cache: dict = {}

    @cached_property
    def state(self) -> AdamState:
        return AdamState.for_params(self.params)

    def _forward(self, inputs: np.ndarray, masks: list, cache: dict, training: bool) -> list[np.ndarray]:
        """The forward steppers over the (W, features, batch) sequence
        `inputs`, into `cache`'s arrays; returns each layer's outputs."""
        w_steps, _, b = inputs.shape
        hs, below, above = self.hs, self.below, self.above
        _cache_arrays(cache, len(self.layers), w_steps, hs, b, training)
        span = len(cache["c"][0])
        outs = [_seq(np.empty((hs, b)), w_steps) for _ in self.layers]
        if above:
            outs[-1] = above.up(b)
        ins = [inputs] + outs[:-1]
        steppers = [
            _forward_steps(layer, hs, cache["gates"][i], cache["c"][i], cache["c_ends"][i], masks[self.lo + i],
                           ins[i], outs[i])
            for i, layer in enumerate(self.layers)
        ]
        with np.errstate(over="ignore"):
            for t in range(w_steps):
                if below and t % span == 0:
                    below.wait()
                for stepper in steppers:
                    next(stepper)
                if above and (t % span == span - 1 or t == w_steps - 1):
                    above.post()
        return outs

    def _head(self, outs: list[np.ndarray]) -> np.ndarray:
        return self.network.dense_w @ outs[-1][-1] + self.network.dense_b[0]

    def forward(self, inputs: np.ndarray, masks: list[np.ndarray | None]) -> np.ndarray | None:
        """The training forward over one batch, the bottom layer reading the
        (W, features, batch) sequence `inputs`, `masks` one per layer of the
        network; returns the predictions (batch,), or None below the top."""
        inputs = np.ascontiguousarray(inputs)
        outs = self._forward(inputs, masks, self.cache, training=True)
        self.cache.update(x=inputs, masks=masks, outs=outs)
        return None if self.above else self._head(outs)

    def gradients(self, dpred: np.ndarray | None = None) -> np.ndarray:
        """The gradient of `params`, one vector laid out like it, over the
        batch the last `forward` cached, which it consumes; `dpred` is the
        loss gradient by each prediction (batch,) at the top, None below it.
        The head's gradient seeds the top layer's carry."""
        hs, below, above, lo = self.hs, self.below, self.above, self.lo
        cache = self.cache
        gates, rings, ends, inputs, masks, outs = (cache[k] for k in ("gates", "c", "c_ends", "x", "masks", "outs"))
        w_steps, _, b = inputs.shape
        span = len(rings[0])
        grad = np.zeros(len(self.params))
        views = _unpack(grad, self.shapes)
        dw, du, db = (views[k : 3 * len(self.layers) : 3] for k in range(3))
        carries = [np.zeros((hs, b)) for _ in self.layers]
        if not above:
            head = _head_backward(self.network.dense_w, gates[-1], rings[-1], masks[-1], dpred, hs)
            carries[-1], views[-2][...], views[-1][...] = head
        # layer i takes the gradient of its output from d_outs[i], which the
        # layer above writes (the group above, for the top one's); the group
        # above reads the top layer's outputs where the forward left them
        d_outs = [_seq(np.zeros((hs, b)), w_steps) for _ in self.layers]
        if above:
            d_outs[-1] = above.down(b)
        d_ins = [below.down(b) if below else None] + d_outs[:-1]
        ins, back_outs = [inputs] + outs[:-1], outs[:-1] + [None]
        steppers = [
            _backward_steps(layer, hs, gates[i], rings[i], ends[i], masks[lo + i], ins[i], back_outs[i],
                            d_outs[i], d_ins[i], masks[lo + i - 1] if lo + i else None, carries[i], dw[i], du[i])
            for i, layer in enumerate(self.layers)
        ]
        for stepper in steppers:
            next(stepper)
        for t in range(w_steps - 1, -1, -1):
            if above and (t == w_steps - 1 or t % span == span - 1):
                above.wait()
            for stepper in reversed(steppers):
                next(stepper)
            if below and t % span == 0:
                below.post()
        for d, g in zip(db, gates):
            d[...] = g.sum(axis=(0, 2))
        return grad

    def step(self, inputs: np.ndarray, masks: list[np.ndarray | None], targets: np.ndarray | None = None):
        """One training batch: `forward`, `gradients` and an Adam step of
        `params`. The top group scores the batch against `targets` first and
        returns its sum of squared errors, with no gradient if that is not
        finite; below the top it returns None."""
        preds = self.forward(inputs, masks)
        batch_sq = dpred = None
        if preds is not None:
            diff = preds - targets
            batch_sq = float(diff @ diff)
            if not math.isfinite(batch_sq):
                return batch_sq
            dpred = (2.0 / len(targets)) * diff
        adam_step(self.params, self.gradients(dpred), self.state, self.network.config.learning_rate)
        return batch_sq

    def predict(self, x: np.ndarray, calls: list[tuple[int, int]]) -> np.ndarray:
        """Eval predictions for the windows x (n, W, features) from a group
        over every layer, one forward per (start, stop) of `calls`."""
        preds = np.empty(len(x))
        none_masks = [None] * len(self.network.layers)
        for start, stop in calls:
            inputs = np.ascontiguousarray(x[start:stop].transpose(1, 2, 0))
            preds[start:stop] = self._head(self._forward(inputs, none_masks, {}, training=False))
        return preds


def backward(network: LstmNetwork, cache: dict, dloss_dpred) -> list[np.ndarray]:
    """Gradients for every parameter, ordered like network.parameters(), of
    the group over every layer whose `forward` filled `cache`; `dloss_dpred`
    is the loss gradient by each window's prediction (shape (batch,))."""
    dpred = np.asarray(dloss_dpred, dtype=float)
    if len(cache["gates"]) != len(network.layers):
        raise DataError("cache does not match network depth")
    if dpred.shape != (cache["x"].shape[2],):
        raise DataError(f"loss gradient shape {dpred.shape} does not match batch {cache['x'].shape[2]}")
    group = _LayerGroup(network)
    group.cache = cache
    return _unpack(group.gradients(dpred), group.shapes)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> AdamState:
    """One Adam update of the vector `params` in place, by the gradient vector `grad`."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient, and state shapes disagree")
    state.t += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**state.t)
    v_hat = v / (1.0 - ADAM_BETA2**state.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def train(network: LstmNetwork, train_set: WindowedDataset, val_set: WindowedDataset, config: LstmConfig,
          *, team=None):
    """Mini-batch Adam training with early stopping on validation MSE.

    Windows are visited in a seeded random permutation each epoch; dropout
    masks are redrawn per batch. With validation windows, training stops
    once max(patience, 1) epochs (patience 0 acts as 1) have passed since
    the first epoch with the lowest validation loss, whose parameters are
    restored at the end; without them every epoch runs. Returns
    (network, TrainingHistory); the network is updated in place.

    `team` is the `layer_workers` of `network` and `train_set`, which the
    caller keeps for more predictions; without one, `train` opens its own
    and ends it before it returns or raises. The batches and the validation
    predictions run on the team (see the module docstring), whose top group
    scores each batch; this process keeps the RNG, the losses, early stopping
    and the best-weights snapshot, one copy of the network's `flat` vector,
    taken and restored while the team is idle.
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
    n = len(y_train)
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch = -1
    best: np.ndarray | None = None

    # inside the block `network.flat` is the team's: workers' shared memory, or this process's
    with nullcontext(team) if team else layer_workers(network, train_set) as team:
        for epoch in range(config.max_epochs):
            order = rng.permutation(n)
            sq_sum = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                batch_sq = team.step(x_train[idx].transpose(1, 2, 0), _draw_masks(config, rng), y_train[idx])
                if not np.isfinite(batch_sq):
                    raise DivergenceError(f"non-finite training loss in epoch {epoch}", epoch=epoch)
                sq_sum += batch_sq
            train_losses.append(sq_sum / n)

            if len(val_set.targets) == 0:
                val_losses.append(float("nan"))
                best_epoch = epoch
                continue
            diff = predict_series(network, val_set, epoch, team=team) - val_set.targets
            val_mse = float(diff @ diff) / len(diff)
            if not np.isfinite(val_mse):
                raise DivergenceError(f"non-finite validation loss in epoch {epoch}", epoch=epoch)
            val_losses.append(val_mse)
            if best is None or val_mse < val_losses[best_epoch]:
                best_epoch = epoch
                best = network.flat.copy()
            elif epoch - best_epoch >= max(config.patience, 1):
                break

        if best is not None:
            network.flat[...] = best
    history = TrainingHistory(
        train_losses=tuple(train_losses),
        val_losses=tuple(val_losses),
        best_epoch=best_epoch,
    )
    return network, history


def layer_workers(network: LstmNetwork, train_set: WindowedDataset):
    """A context manager: the team that trains `network` on batches of
    `train_set`'s windows and makes its predictions. That is min(layers, CPUs)
    layer workers, which have exited on the way out, or, when that is one, a
    `_LayerGroup` over every layer in this process, which starts nothing.
    Starting workers moves `network`'s parameters into shared memory: its
    `flat` is rebound onto a vector there, which the workers train and which
    stays `network`'s after they exit."""
    config = network.config
    workers = min(config.num_layers, _cpu_count())
    if workers <= 1:
        return nullcontext(_LayerGroup(network))
    from ._lstm_workers import Team

    w_steps = np.shape(train_set.inputs)[1]
    return Team.started(network, w_steps, min(config.batch_size, len(train_set.targets)), workers)


def _cpu_count() -> int:
    """The CPUs this process may run on, or 1 (one group in this process) off Linux."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _eval_calls(n: int) -> list[tuple[int, int]]:
    """The (start, stop) windows of each eval forward call over n windows:
    2 * EVAL_CHUNK per call up to n - n % EVAL_CHUNK (the last such call may
    hold only EVAL_CHUNK), then the rest in one call."""
    full = n - n % EVAL_CHUNK
    calls = [(start, min(start + 2 * EVAL_CHUNK, full)) for start in range(0, full, 2 * EVAL_CHUNK)]
    return calls + [(full, n)] if full < n else calls


def predict_series(network: LstmNetwork, windows: WindowedDataset, epoch: int | None = None,
                   *, team=None) -> np.ndarray:
    """Eval-mode one-step predictions for every window, aligned with targets.

    `train` scores validation through it too. The windows run in the forward
    calls of `_eval_calls` on `team`, the `layer_workers` of `network`, or
    without one on a `_LayerGroup` over every layer in this process, with the
    same bits (see the module docstring). Raises DivergenceError (tagged with
    `epoch`, when given) if any prediction is not finite.
    """
    inputs = np.asarray(windows.inputs, dtype=float)
    if inputs.shape[2] != network.config.input_size:
        raise DataError(
            f"windows have {inputs.shape[2]} features, network expects {network.config.input_size}"
        )
    preds = (team or _LayerGroup(network)).predict(inputs, _eval_calls(len(inputs)))
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
    arrays = {key: p for (key, _), p in zip(param_layout(network.config), network.parameters())}
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(network.config)}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> LstmNetwork:
    """Read a checkpoint written by save_checkpoint and return its network.
    An array of another shape than its config gives is a DataError."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {meta['version']}")
        config = LstmConfig(**meta["config"])
        arrays = []
        for key, shape in param_layout(config):
            arrays.append(data[key])
            if arrays[-1].shape != shape:
                raise DataError(f"checkpoint array {key} has shape {arrays[-1].shape}, its config gives {shape}")
        return LstmNetwork(config, np.concatenate([a.ravel() for a in arrays]))
