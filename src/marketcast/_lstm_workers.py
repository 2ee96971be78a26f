"""The processes behind `lstm`'s layer workers (see `lstm`'s docstring).

`Team` is the parent's side: it starts the workers, hands them each batch
and each eval call, and collects their replies. `_worker` is a worker's
command loop. For a batch it drives `lstm._LayerGroup` over its own layers,
linked to the workers beside it by `_Link`s: a sequence each way in shared
memory, and a counter of the steps written into each. For an eval call it
drives a group over every layer on the windows it was sent. `lstm` imports
this module only when it starts workers, so importing the CLI compiles
none of it.
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
from .lstm import LstmLayer, LstmNetwork, _LayerGroup

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
    outputs) and down (their gradients), with a counter of the batch's steps
    written into each. Eval is data-parallel instead: each worker runs whole
    eval calls over all the layers, on the windows it is sent. Commands,
    eval windows and replies go through a socket per worker.
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
        return ModelFitError(f"LSTM layer worker {j} exited with status {self.procs[j].wait()}")

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

    def forward(self, inputs: np.ndarray, masks: list[np.ndarray | None]) -> np.ndarray:
        """Hand the workers one batch, the windows' (W, features, batch)
        sequence and its masks; returns the predictions once the top worker
        has made them. Every worker is idle, so the step counters start
        again from zero."""
        b = inputs.shape[2]
        np.copyto(self.views["x"][: self.w_steps * self.d * b].reshape(self.w_steps, self.d, b), inputs)
        if masks[0] is not None:
            self.views["masks"][...] = masks
        self.views["steps"][...] = 0
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


class _Link:
    """Workers j and j + 1's hand-off as one of them sees it: the (W, H,
    batch) sequences handed up (the lower one's top layer's dropped outputs)
    and down (their gradients), and the counters of the steps written into
    each. The lower worker posts up and waits for down, the upper one the
    other way round."""

    def __init__(self, views: dict, j: int, w_steps: int, hs: int, upper: bool, parent: int):
        self.bufs, self.seq_shape, self.parent = (views[f"up{j}"], views[f"down{j}"]), (w_steps, hs), parent
        self.steps = views["steps"][:, 0]
        # one 64-byte line per counter: up{j}'s steps at row 2j, down{j}'s at 2j + 1
        self.wait_row, self.post_row = (2 * j, 2 * j + 1) if upper else (2 * j + 1, 2 * j)

    def _seq(self, buf: np.ndarray, b: int) -> np.ndarray:
        return buf[: math.prod(self.seq_shape) * b].reshape(*self.seq_shape, b)

    def up(self, b: int) -> np.ndarray:
        return self._seq(self.bufs[0], b)

    def down(self, b: int) -> np.ndarray:
        return self._seq(self.bufs[1], b)

    def post(self, count: int) -> None:
        self.steps[self.post_row] = count

    def wait(self, count: int) -> None:
        """Wait until the other side has posted `count` steps, spinning and
        yielding the CPU for up to SPIN_S, then polling every POLL_S: a long
        wait, or one on a busy machine, leaves the CPU to others. Exit if the
        parent is gone."""
        spin_until = time.perf_counter() + SPIN_S
        while self.steps[self.wait_row] < count:
            if os.getppid() != self.parent:
                os._exit(1)
            if time.perf_counter() < spin_until:
                os.sched_yield()
            else:
                time.sleep(POLL_S)


def _groups(init: dict, views: dict, parent: int) -> tuple[_LayerGroup, _LayerGroup]:
    """A worker's group over its own layers, linked to the workers beside it,
    and its group over every layer for eval, both on the shared parameters."""
    config, w_steps, j, bounds = init["config"], init["w_steps"], init["index"], init["bounds"]
    p = [views[f"p{i}"] for i in range(3 * config.num_layers + 2)]
    layers = [LstmLayer(w=p[3 * k], u=p[3 * k + 1], b=p[3 * k + 2]) for k in range(config.num_layers)]
    network = LstmNetwork(layers=layers, dense_w=p[-2], dense_b=p[-1], config=config)
    hs = config.hidden_size
    below = _Link(views, j - 1, w_steps, hs, True, parent) if j else None
    above = _Link(views, j, w_steps, hs, False, parent) if bounds[j + 1] < config.num_layers else None
    return _LayerGroup(network, bounds[j], bounds[j + 1], below, above), _LayerGroup(network)


def _batch(group: _LayerGroup, views: dict, w_steps: int, b: int, conn, caught: list) -> None:
    """One batch of b windows on the worker's group: forward, then backward
    and the Adam step. The top worker hands the parent the predictions in
    between, and waits for its go."""
    config = group.network.config
    d = config.input_size
    inputs = group.below.up(b) if group.below else views["x"][: w_steps * d * b].reshape(w_steps, d, b)
    masks = list(views["masks"]) if config.dropout_rate else [None] * config.num_layers
    preds = group.forward(inputs, masks)
    dpred = None
    if preds is not None:
        views["preds"][:b] = preds
        conn.send(("preds", (_relayed(caught), None)))
        caught.clear()
        conn.recv()  # the parent's go: the loss gradient is in place
        dpred = views["dpred"][:b]
    group.backward(dpred)
    conn.send(("done", (_relayed(caught), None)))


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
            views = _views(shared, init["layout"])
            group, whole = _groups(init, views, parent)
            while True:
                kind, value = conn.recv()
                if kind == "stop":
                    conn.send(("exit", ([], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)))
                    return
                arg, errstate = value
                with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                    warnings.simplefilter("always")
                    if kind == "batch":
                        _batch(group, views, init["w_steps"], arg, conn, caught)
                    else:
                        x = np.frombuffer(conn.recv_bytes()).reshape(arg)
                        conn.send(("eval", (_relayed(caught), whole.predict(x, [(0, len(x))]))))
        except EOFError:  # the parent closed the socket
            return
        except Exception as exc:
            exc.add_note(f"raised in an LSTM layer worker:\n{traceback.format_exc()}")
            with suppress(OSError):
                conn.send(("error", exc))
