"""The processes behind `lstm`'s layer workers (see `lstm`'s docstring).

`Team` is the parent's side: it starts the workers, binds the network onto
their shared parameter vector, hands them each batch and each eval call over
their sockets, and collects their replies. `_worker` is a worker's command
loop. For a batch it runs one `step` of `lstm._LayerGroup` over its own
layers, linked to the workers beside it by `_Link`s: a sequence each way in
shared memory, and a socket on which each side sends one byte per span of
steps it has written. For an eval call it drives a group over every layer
on the windows it was sent. `lstm` imports this module only when it starts
workers, so importing the CLI compiles none of it.
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
import traceback
import warnings
from contextlib import ExitStack, contextmanager, suppress
from multiprocessing.connection import Connection, wait

import numpy as np

from .errors import ModelFitError
from .lstm import LstmNetwork, _LayerGroup

# the program of a worker, `python -P -c _WORKER_CODE <socket fd>`
_WORKER_CODE = "import sys; from marketcast._lstm_workers import _worker; _worker(int(sys.argv[1]))"


class Team:
    """The parent's side of the layer workers.

    Worker j steps layers bounds[j] .. bounds[j + 1] - 1, and the last one
    also the head, over every batch. They share two mappings. One holds the
    network's `flat` parameter vector: it is copied there once and the
    caller's network is bound onto it, so the workers train its own vector,
    each its group's contiguous slice of it. The other holds what the workers
    hand each other, and this process sizes it but never maps it: between
    workers j and j + 1 the (W, H, batch) sequences handed up (the dropped
    outputs) and down (their gradients). Each such pair also shares a
    socketpair, on which a worker sends one byte once it has written a span of
    steps (see `_Link`). Everything between this process and a worker goes
    through that worker's socket: commands, a batch's masks, windows (to the
    bottom worker), targets (to the top one, which scores the batch) and
    squared error, and eval windows and predictions. Eval is data-parallel:
    each worker runs whole eval calls over all the layers, on the windows it
    is sent.
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
        # between workers j and j + 1 a sequence up and one down, each as long
        # as a batch's and starting at a 64-byte boundary
        handoffs = (count - 1, 2, -(-w_steps * config.hidden_size * b_max // 8) * 8)
        # this process's copies of the workers' descriptors, closed once they
        # hold them: a link whose other end only a worker holds reads as
        # closed when that worker exits
        with ExitStack() as ours_too:
            fds = []
            for name, size in (("params", network.flat.nbytes), ("handoffs", 8 * math.prod(handoffs))):
                fds.append(os.memfd_create(f"marketcast-lstm-{name}"))
                ours_too.callback(os.close, fds[-1])
                os.ftruncate(fds[-1], size)
            links = [tuple(map(ours_too.enter_context, socket.socketpair())) for _ in range(count - 1)]
            shared = np.frombuffer(mmap.mmap(fds[0], 0))
            shared[...] = network.flat
            # from here on the vector the workers train is the network's own
            network.flat = shared
            src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            bounds = [j * config.num_layers // count for j in range(count + 1)]
            for j in range(count):
                # the link to the worker below, and to the one above
                ends = (links[j - 1][1].fileno() if j else None, links[j][0].fileno() if j < count - 1 else None)
                ours, theirs = socket.socketpair()
                self.conns.append(Connection(ours.detach()))
                with theirs:
                    self.procs.append(subprocess.Popen(
                        [sys.executable, "-P", "-c", _WORKER_CODE, str(theirs.fileno())],
                        pass_fds=[theirs.fileno(), *fds, *(fd for fd in ends if fd is not None)], env=env,
                        stdin=subprocess.DEVNULL,
                    ))
                self._send(j, "init", {"fds": fds, "handoffs": handoffs, "links": ends, "config": config,
                                       "w_steps": w_steps, "index": j, "bounds": bounds})

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

    def _replies(self):
        """Yield (index, result) for the next reply of each worker, in the
        order they come; every worker that has not yet replied is watched."""
        pending = set(range(len(self.conns)))
        while pending:
            j, result = self._reply(pending)
            pending.discard(j)
            yield j, result

    def step(self, inputs: np.ndarray, masks: list[np.ndarray | None], targets: np.ndarray) -> float:
        """One training batch: one request to each worker (the windows to the
        bottom one, the targets to the top one) and one reply from each.
        Returns the top worker's sum of squared errors, at once if it is not
        finite: the top then takes no gradient, and the workers below wait
        until the team is ended."""
        inputs = np.ascontiguousarray(inputs)
        top = len(self.conns) - 1
        for j in range(len(self.conns)):
            self._send(j, "batch", ((inputs.shape, masks, targets if j == top else None), np.geterr()),
                       None if j else inputs)
        for j, result in self._replies():
            if j == top:
                batch_sq = result
                if not math.isfinite(batch_sq):
                    break
        return batch_sq

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

    def stop(self) -> None:
        """Tell every worker to exit, and keep the peak RSS each reports, in KiB."""
        for j in range(len(self.conns)):
            self._send(j, "stop")
        self.peaks_kib = tuple(peak for _, peak in sorted(self._replies()))
        for proc in self.procs:
            proc.wait()


class _Link:
    """Workers j and j + 1's hand-off as one of them sees it: the (W, H,
    batch) sequences handed up (the lower one's top layer's dropped outputs)
    and down (their gradients), `bufs[0]` and `bufs[1]` in shared memory, and
    the socket the two share. The lower worker writes up and reads down, the
    upper one the other way round. A side sends one byte once it has written a
    span of steps, and the other side receives it before reading that span: a
    batch posts and waits once per span each way, so the k-th byte says span k
    is written, and the send and receive order the memory in between on any
    CPU."""

    def __init__(self, bufs: np.ndarray, w_steps: int, hs: int, sock: socket.socket):
        self.bufs, self.seq_shape, self.sock = bufs, (w_steps, hs), sock

    def _seq(self, buf: np.ndarray, b: int) -> np.ndarray:
        return buf[: math.prod(self.seq_shape) * b].reshape(*self.seq_shape, b)

    def up(self, b: int) -> np.ndarray:
        return self._seq(self.bufs[0], b)

    def down(self, b: int) -> np.ndarray:
        return self._seq(self.bufs[1], b)

    def post(self) -> None:
        """Say that the next span of steps is written."""
        self.sock.sendall(b"\0")

    def wait(self) -> None:
        """Block until the other side has written its next span of steps.
        Raises EOFError if it has exited."""
        if not self.sock.recv(1):
            raise EOFError("the LSTM layer worker beside this one has exited")


def _groups(init: dict) -> tuple[_LayerGroup, _LayerGroup]:
    """A worker's group over its own layers, linked to the workers beside it,
    and its group over every layer for eval, both on the shared parameters."""
    config, w_steps, j, bounds = init["config"], init["w_steps"], init["index"], init["bounds"]
    params, handoffs = [mmap.mmap(fd, 0) for fd in init["fds"]]
    for fd in init["fds"]:
        os.close(fd)
    network, seqs = LstmNetwork(config, np.frombuffer(params)), np.frombuffer(handoffs).reshape(init["handoffs"])
    hs, (below, above) = config.hidden_size, init["links"]
    below = None if below is None else _Link(seqs[j - 1], w_steps, hs, socket.socket(fileno=below))
    above = None if above is None else _Link(seqs[j], w_steps, hs, socket.socket(fileno=above))
    return _LayerGroup(network, bounds[j], bounds[j + 1], below, above), _LayerGroup(network)


def _worker(sock_fd: int) -> None:
    """A layer worker's main (see `_WORKER_CODE`): runs each batch and eval
    call the parent sends over the socket until told to stop or the socket
    closes. An error goes back to the parent, which raises it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt and ends its workers
    with Connection(sock_fd) as conn:
        try:
            _, init = conn.recv()
            group, whole = _groups(init)
            while True:
                kind, value = conn.recv()
                if kind == "stop":
                    conn.send(("exit", ([], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)))
                    return
                arg, errstate = value
                with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                    warnings.simplefilter("always")
                    if kind == "batch":
                        shape, masks, targets = arg
                        below = group.below
                        inputs = below.up(shape[2]) if below else np.frombuffer(conn.recv_bytes()).reshape(shape)
                        result = group.step(inputs, masks, targets)
                    else:
                        x = np.frombuffer(conn.recv_bytes()).reshape(arg)
                        result = whole.predict(x, [(0, len(x))])
                # the caught warnings as (category, message) pairs, for the parent to warn again
                conn.send((kind, ([(w.category, str(w.message)) for w in caught], result)))
        except (EOFError, ConnectionError):
            # the parent closed the socket, or a worker beside this one has
            # exited. Send nothing, and exit only once the parent closes the
            # socket: the parent then reads the dead worker's exit, not this
            # one's. A dead parent so ends every worker, each either directly
            # or when the one beside it exits
            with suppress(EOFError, ConnectionError):
                while True:
                    conn.recv_bytes()
        except Exception as exc:
            exc.add_note(f"raised in an LSTM layer worker:\n{traceback.format_exc()}")
            with suppress(OSError):
                conn.send(("error", exc))
