"""The processes behind `lstm`'s layer workers (see `lstm`'s docstring).

`Team` is the parent's side: it starts the workers, hands them each batch
and each eval call, and collects their replies. `_Group` and `_worker` are a
worker's side: for a batch it drives `lstm`'s layer steppers for its group of
layers and hands the workers beside it one span of steps at a time; for an
eval call it runs the whole network's eval forward on the windows it was
sent. `lstm` imports this module only when it starts workers, so importing
the CLI compiles none of it.
"""

from __future__ import annotations

import math
import mmap
import os
import resource
import signal
import socket
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, suppress
from multiprocessing.connection import Connection, wait

import numpy as np

from .errors import ModelFitError
from .lstm import (
    AdamState,
    LstmLayer,
    LstmNetwork,
    _backward_steps,
    _cache_arrays,
    _forward_batch,
    _forward_steps,
    _head_backward,
    _seq,
    adam_step,
)

# a worker waiting for a step of the worker beside it spins this long, then
# polls at this interval (a span of steps takes milliseconds)
SPIN_S, POLL_S = 0.0005, 0.0001
# the program of a worker, `python -P -c _WORKER_CODE <socket fd> <shared memory fd>`
_WORKER_CODE = "import sys; from marketcast._lstm_workers import _worker; _worker(int(sys.argv[1]), int(sys.argv[2]))"


class Team:
    """The parent's side of the layer workers.

    Worker j steps layers bounds[j] .. bounds[j + 1] - 1, and the last one
    also the head, over every batch. They share one mapping: the parameters,
    each batch's windows, masks, predictions and loss gradient, and between
    workers j and j + 1 the (W, H, batch) sequences handed up (the dropped
    outputs) and down (their gradients), with a counter of the steps written
    into each. Eval is data-parallel instead: each worker runs whole eval
    calls over all the layers, on the windows it is sent. Commands, eval
    windows and replies go through a socket per worker.
    """

    def __init__(self):
        self.procs: list = []
        self.conns: list = []
        self.peaks_kib: tuple[int, ...] = ()  # each worker's peak RSS, reported as it exits

    @classmethod
    @contextmanager
    def started(cls, network: LstmNetwork, w_steps: int, b_max: int, count: int):
        """Start `count` workers and end them on the way out: stopped after
        the block, killed if any is still running after an error."""
        team = cls()
        try:
            team._start(network, w_steps, b_max, count)
            yield team
            team.stop()
        finally:
            for proc in team.procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            for conn in team.conns:
                conn.close()

    def _start(self, network: LstmNetwork, w_steps: int, b_max: int, count: int) -> None:
        config = network.config
        hs, layers = config.hidden_size, config.num_layers
        self.w_steps, self.d = w_steps, config.input_size
        params = network.parameters()
        fields = [(f"p{i}", "f8", p.shape) for i, p in enumerate(params)]
        fields += [("x", "f8", (w_steps * self.d * b_max,)), ("masks", "f8", (layers, hs)),
                   ("preds", "f8", (b_max,)), ("dpred", "f8", (b_max,))]
        for j in range(count - 1):
            fields += [(f"up{j}", "f8", (w_steps * hs * b_max,)), (f"down{j}", "f8", (w_steps * hs * b_max,))]
        # one 64-byte line per counter: up{j}'s steps at row 2j, down{j}'s at 2j + 1
        fields.append(("steps", "i8", (max(2 * (count - 1), 1), 8)))
        layout, size = _layout(fields)
        fd = os.memfd_create("marketcast-lstm")
        try:
            os.ftruncate(fd, size)
            self.views = _views(mmap.mmap(fd, size), layout)
            for i, p in enumerate(params):
                self.views[f"p{i}"][...] = p
            src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            bounds = [j * layers // count for j in range(count + 1)]
            for j in range(count):
                ours, theirs = socket.socketpair()
                self.conns.append(Connection(ours.detach()))
                with theirs:
                    self.procs.append(subprocess.Popen(
                        [sys.executable, "-P", "-c", _WORKER_CODE, str(theirs.fileno()), str(fd)],
                        pass_fds=(theirs.fileno(), fd), env=env, stdin=subprocess.DEVNULL,
                    ))
                self._send(j, "init", {"layout": layout, "config": config, "w_steps": w_steps,
                                       "index": j, "bounds": bounds})
        finally:
            os.close(fd)

    def _exited(self, j: int) -> ModelFitError:
        return ModelFitError(f"LSTM training worker {j} exited with status {self.procs[j].wait()}")

    def _send(self, j: int, kind: str, value=None, data: np.ndarray | None = None) -> None:
        """Send worker j a command, and then `data`'s bytes (C-contiguous) if given."""
        try:
            self.conns[j].send((kind, value))
            if data is not None:
                self.conns[j].send_bytes(data)
        except OSError:  # the worker has closed its end
            raise self._exited(j) from None

    def _reply(self, watched) -> tuple[int, object]:
        """Wait for the next reply of a worker in `watched` and return (its
        index, its result), after warning again what it caught. An error a
        worker sends is raised here, and one that exits becomes a
        ModelFitError naming its exit status, so a worker waiting on a dead
        one cannot hang the run."""
        conn = wait([self.conns[j] for j in watched])[0]
        j = self.conns.index(conn)
        try:
            kind, value = conn.recv()
        except (EOFError, OSError):  # closed, or reset with data unread
            raise self._exited(j) from None
        if kind == "error":
            raise value
        caught, result = value
        for category, message in caught:
            warnings.warn(message, category, stacklevel=4)
        return j, result

    def _await(self, expected: set[int]) -> list:
        """Wait for a reply from each worker in `expected` and return their
        results in worker order. Every worker that has not yet replied is
        watched meanwhile."""
        replies: dict[int, object] = {}
        while not expected <= replies.keys():
            j, result = self._reply([j for j in range(len(self.conns)) if j not in replies])
            replies[j] = result
        return [replies[j] for j in sorted(expected)]

    def forward(self, x: np.ndarray, masks: list[np.ndarray | None]) -> np.ndarray:
        """Hand the workers one batch of windows (batch, W, features) and its
        masks; returns the predictions once the top worker has made them."""
        b = len(x)
        np.copyto(self.views["x"][: self.w_steps * self.d * b].reshape(self.w_steps, self.d, b), x.transpose(1, 2, 0))
        if masks[0] is not None:
            self.views["masks"][...] = masks
        for j in range(len(self.conns)):
            self._send(j, "batch", (b, np.geterr()))
        self._await({len(self.conns) - 1})
        return self.views["preds"][:b].copy()

    def backward(self, dpred: np.ndarray) -> None:
        """Hand the top worker the loss gradient and wait until every worker
        has run backward and its Adam step."""
        self.views["dpred"][: len(dpred)] = dpred
        self._send(len(self.conns) - 1, "back")
        self._await(set(range(len(self.conns))))

    def predict(self, x: np.ndarray, calls: list[tuple[int, int]]) -> np.ndarray:
        """Eval predictions for the windows x (n, W, features) from the
        workers' parameters, one eval forward per (start, stop) of `calls`,
        each sent to the next worker to be free: on a quiet machine worker j
        runs calls j, j + count, ... Returns them in window order."""
        queue = iter(calls)
        running: dict[int, tuple[int, int]] = {}
        preds = np.empty(len(x))

        def deal(j: int) -> None:
            call = next(queue, None)
            if call is not None:
                running[j] = call
                chunk = np.ascontiguousarray(x[slice(*call)])
                self._send(j, "eval", (chunk.shape, np.geterr()), chunk)

        for j in range(len(self.conns)):
            deal(j)
        while running:
            j, out = self._reply(range(len(self.conns)))
            preds[slice(*running.pop(j))] = out
            deal(j)
        return preds

    def pull(self, params: list[np.ndarray]) -> None:
        """Copy the workers' parameters into `params`, ordered like network.parameters()."""
        for i, p in enumerate(params):
            p[...] = self.views[f"p{i}"]

    def push(self, params: list[np.ndarray]) -> None:
        """Copy `params`, ordered like network.parameters(), into the workers' parameters."""
        for i, p in enumerate(params):
            self.views[f"p{i}"][...] = p

    def stop(self) -> None:
        """Tell every worker to exit, and keep the peak RSS each reports, in KiB."""
        for j in range(len(self.conns)):
            self._send(j, "stop")
        self.peaks_kib = tuple(self._await(set(range(len(self.conns)))))
        for proc in self.procs:
            proc.wait()


def _layout(fields: list[tuple[str, str, tuple]]) -> tuple[dict, int]:
    """Byte offsets for (name, dtype, shape) arrays laid out one after another
    at 64-byte boundaries, and the total size."""
    layout, offset = {}, 0
    for name, dtype, shape in fields:
        layout[name] = (offset, dtype, shape)
        offset += -(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64
    return layout, offset


def _views(buf, layout: dict) -> dict[str, np.ndarray]:
    return {
        name: np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
        for name, (offset, dtype, shape) in layout.items()
    }


class _Group:
    """A worker's side: its layers' steppers over each batch, handing the
    workers beside it one span of steps at a time, and the whole network's
    eval forward over the windows of an eval call."""

    def __init__(self, init: dict, views: dict, parent: int):
        config = init["config"]
        self.config, self.views, self.parent = config, views, parent
        self.w_steps, self.hs = init["w_steps"], config.hidden_size
        self.span = math.isqrt(self.w_steps - 1) + 1
        self.j, bounds = init["index"], init["bounds"]
        self.lo, self.hi = bounds[self.j], bounds[self.j + 1]
        self.top = self.hi == config.num_layers
        p = [views[f"p{i}"] for i in range(3 * config.num_layers + 2)]
        layers = [LstmLayer(w=p[3 * k], u=p[3 * k + 1], b=p[3 * k + 2]) for k in range(config.num_layers)]
        self.network = LstmNetwork(layers=layers, dense_w=p[-2], dense_b=p[-1], config=config)
        self.layers = layers[self.lo : self.hi]
        self.params = p[3 * self.lo : 3 * self.hi] + (p[-2:] if self.top else [])
        self.state = AdamState.for_params(self.params)
        self.steps = views["steps"][:, 0]
        self.cache: dict = {}
        self.batches = 0

    def _seq(self, name: str, rows: int, b: int) -> np.ndarray:
        return self.views[name][: self.w_steps * rows * b].reshape(self.w_steps, rows, b)

    def _await(self, row: int, count: int) -> None:
        """Wait until counter `row` reaches `count`, spinning and yielding the
        CPU for up to SPIN_S, then polling every POLL_S: a long wait, or one
        on a busy machine, leaves the CPU to others. Exit if the parent is gone."""
        spin_until = time.perf_counter() + SPIN_S
        while self.steps[row] < count:
            if os.getppid() != self.parent:
                os._exit(1)
            if time.perf_counter() < spin_until:
                os.sched_yield()
            else:
                time.sleep(POLL_S)

    def batch(self, b: int, conn, caught: list) -> None:
        """Forward, backward and the Adam step of this worker's layers on one batch."""
        config, hs, w_steps, span, j, top = self.config, self.hs, self.w_steps, self.span, self.j, self.top
        base = self.batches * w_steps  # the counters only grow: a batch's steps count from base
        self.batches += 1
        ks = range(self.lo, self.hi)
        _cache_arrays(self.cache, len(ks), w_steps, hs, b, training=True)
        gates, rings, ends = self.cache["gates"], self.cache["c"], self.cache["c_ends"]
        masks = list(self.views["masks"]) if config.dropout_rate else [None] * config.num_layers
        below = self._seq("x", config.input_size, b) if j == 0 else self._seq(f"up{j - 1}", hs, b)
        outs = [_seq(np.empty((hs, b)), w_steps) for _ in ks]
        if not top:
            outs[-1] = self._seq(f"up{j}", hs, b)
        inputs = [below] + outs[:-1]

        steppers = [
            _forward_steps(layer, hs, gates[i], rings[i], ends[i], masks[k], inputs[i], outs[i])
            for i, (k, layer) in enumerate(zip(ks, self.layers))
        ]
        with np.errstate(over="ignore"):
            for t in range(w_steps):
                if j and t % span == 0:
                    self._await(2 * (j - 1), base + min(t + span, w_steps))
                for stepper in steppers:
                    next(stepper)
                if not top and (t % span == span - 1 or t == w_steps - 1):
                    self.steps[2 * j] = base + t + 1

        if top:
            dense_w, dense_b = self.params[-2:]
            self.views["preds"][:b] = dense_w @ outs[-1][w_steps - 1] + dense_b[0]
            conn.send(("preds", (_relayed(caught), None)))
            caught.clear()
            conn.recv()  # the parent's go: the loss gradient is in place
            dpred = self.views["dpred"][:b]
            dh_top, d_dense_w, d_dense_b = _head_backward(dense_w, gates[-1], rings[-1], masks[-1], dpred, hs)
        dw = [np.zeros_like(layer.w) for layer in self.layers]
        du = [np.zeros_like(layer.u) for layer in self.layers]
        d_outs = [_seq(np.zeros((hs, b)), w_steps) for _ in ks]
        if not top:
            d_outs[-1] = self._seq(f"down{j}", hs, b)
        d_ins = [self._seq(f"down{j - 1}", hs, b) if j else None] + d_outs[:-1]
        # the worker above reads the top layer's outputs where the forward left them
        back_outs = outs[:-1] + [None]
        steppers = [
            _backward_steps(layer, hs, gates[i], rings[i], ends[i], masks[k], inputs[i], back_outs[i],
                            d_outs[i], d_ins[i], masks[k - 1] if k else None,
                            dh_top if top and k == self.hi - 1 else np.zeros((hs, b)), dw[i], du[i])
            for i, (k, layer) in enumerate(zip(ks, self.layers))
        ]
        for stepper in steppers:
            next(stepper)
        for t in range(w_steps - 1, -1, -1):
            if not top and (t == w_steps - 1 or t % span == span - 1):
                self._await(2 * j + 1, base + w_steps - t + t % span)
            for stepper in reversed(steppers):
                next(stepper)
            if j and t % span == 0:
                self.steps[2 * j - 1] = base + w_steps - t

        grads = []
        for i in range(len(ks)):
            grads.extend((dw[i], du[i], gates[i].sum(axis=(0, 2))))
        if top:
            grads += [d_dense_w, d_dense_b]
        adam_step(self.params, grads, self.state, config.learning_rate)
        conn.send(("done", (_relayed(caught), None)))

    def predict(self, shape: tuple, data: bytes) -> np.ndarray:
        """The eval forward of one call over the windows `data` holds, (batch, W, features)."""
        x = np.frombuffer(data).reshape(shape)
        return _forward_batch(self.network, x, [None] * self.config.num_layers)


def _relayed(caught: list) -> list:
    """Caught warnings as (category, message) pairs, for the parent to warn again."""
    return [(w.category, str(w.message)) for w in caught]


def _worker(sock_fd: int, shared_fd: int) -> None:
    """A layer worker's main (see `_WORKER_CODE`): runs each batch and eval
    call the parent sends over the socket until told to stop or the socket
    closes. An error goes back to the parent, which raises it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt and ends its workers
    parent = os.getppid()
    shared = mmap.mmap(shared_fd, 0)
    os.close(shared_fd)
    with Connection(sock_fd) as conn:
        try:
            _, init = conn.recv()
            group = _Group(init, _views(shared, init["layout"]), parent)
            while True:
                kind, value = conn.recv()
                if kind == "stop":
                    conn.send(("exit", ([], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)))
                    return
                arg, errstate = value
                with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                    warnings.simplefilter("always")
                    if kind == "batch":
                        group.batch(arg, conn, caught)
                    else:
                        preds = group.predict(arg, conn.recv_bytes())
                        conn.send(("eval", (_relayed(caught), preds)))
        except EOFError:  # the parent closed the socket
            return
        except Exception as exc:
            exc.add_note(f"raised in an LSTM training worker:\n{traceback.format_exc()}")
            with suppress(OSError):
                conn.send(("error", exc))
