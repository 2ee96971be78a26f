"""Outside-in layer trace: timed wrappers around marketcast's public functions.

Each span wraps one public function at the module attribute where its caller
looks it up. A name brought in with ``from .frame import load_csv`` is a
separate binding in the importing module, so ``pipeline.load_csv`` and
``cli.load_csv`` are wrapped one by one; ``auto_arima`` finds ``fit_arma``
and ``minimize`` as globals of ``arima``, and ``train`` finds ``backward``
and ``adam_step`` as globals of ``lstm``. No code under ``src/`` changes.

Spans nest through a stack, so a layer's self time is its inclusive time
minus the time its wrapped callees took. Counts that the program computes
anyway (``OptimizeResult.nfev``, epochs run) are read from return values;
``lstm.gflop`` and ``frame.window_mb`` are computed from array shapes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span, module under marketcast, attribute). The untraced loop installs only
# BOUNDARY_SPANS: about a hundred wrapper calls per iteration, against seconds
# of work, to time the model calls the throughput metrics divide by.
BOUNDARY_SPANS = (
    ("lstm.train", "pipeline", "train"),
    ("lstm.predict", "pipeline", "predict_series"),
    ("arima.auto_arima", "arima", "auto_arima"),
    ("arima.fit_arma", "arima", "fit_arma"),
)

FULL_SPANS = BOUNDARY_SPANS + (
    ("pipeline.run", "pipeline", "run_pipeline"),
    ("pipeline.run", "cli", "run_pipeline"),
    ("cli.main", "cli", "main"),
    ("frame.load_csv", "pipeline", "load_csv"),
    ("frame.load_csv", "cli", "load_csv"),
    ("frame.forward_fill", "pipeline", "forward_fill"),
    ("frame.forward_fill", "cli", "forward_fill"),
    ("frame.scale", "pipeline", "fit_scaler"),
    ("frame.scale", "pipeline", "apply_scaler"),
    ("frame.scale", "pipeline", "invert_scaler"),
    ("frame.make_windows", "pipeline", "make_windows"),
    ("indicators.derive", "pipeline", "derive_indicators"),
    # `marketcast features` imports derive_indicators inside the function
    ("indicators.derive", "indicators", "derive_indicators"),
    ("lstm.checkpoint", "pipeline", "save_checkpoint"),
    ("lstm.backward", "lstm", "backward"),
    ("lstm.adam_step", "lstm", "adam_step"),
    ("arima.minimize", "arima", "minimize"),
    ("arima.forecast", "arima", "forecast"),
    ("garch.fit", "garch", "fit_garch11"),
    ("garch.minimize", "garch", "minimize"),
    ("garch.state", "garch", "garch_state"),
    ("chart.render", "pipeline", "render_chart"),
    ("chart.render", "chart", "render_chart"),
    ("chart.read_predictions", "cli", "read_predictions"),
    ("chart.read_predictions", "chart", "read_predictions"),
    ("metrics.report", "metrics", "report"),
    ("pipeline.write", "pipeline", "atomic_write_text"),
    ("pipeline.write", "pipeline", "atomic_write_via"),
    ("pipeline.write", "cli", "atomic_write_text"),
)

# spans whose self time is glue rather than a named layer
GLUE_SPANS = ("pipeline.run", "cli.main")


def lstm_training_flop(n_train: int, n_val: int, window: int, config) -> float:
    """GEMM flops of one training epoch plus its validation pass (computed).

    Per window, step and layer the forward pass costs 2*(D+H)*4H: the input
    and recurrent projections of the four gates. Backward runs the matching
    GEMMs twice, once for the input gradients and once for the weight
    gradients. The dense head and elementwise gate math are left out.
    """
    h = config.hidden_size
    per_step = sum(
        2 * ((config.input_size if layer == 0 else h) + h) * 4 * h
        for layer in range(config.num_layers)
    )
    return float(per_step * window * (3 * n_train + n_val))


class Tracer:
    """Inclusive time, self time, calls, errors and counts per span."""

    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.child_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[str] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.seconds[name] += elapsed
                self.calls[name] += 1
                if self._stack:
                    self.child_seconds[self._stack[-1]] += elapsed
            self._count(name, args, result)
            return result

        return timed

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def _count(self, name: str, args, result) -> None:
        if name in ("arima.minimize", "garch.minimize"):
            self.counts[name.replace("minimize", "nfev")] += int(result.nfev)
        elif name == "frame.make_windows":
            self.counts["frame.window_bytes"] += result.inputs.nbytes
        elif name == "lstm.train":
            _, train_set, val_set, config = args[:4]
            epochs = len(result[1].train_losses)
            n_val = 0 if val_set is None else len(val_set)
            self.counts["lstm.epochs"] += epochs
            self.counts["lstm.train_windows"] += len(train_set) * epochs
            self.counts["lstm.flop"] += epochs * lstm_training_flop(
                len(train_set), n_val, train_set.window_size, config
            )
        elif name == "lstm.predict":
            self.counts["lstm.predict_windows"] += len(args[1])


@contextmanager
def installed(tracer: Tracer, spans):
    """Replace each (module, attribute) with a timed wrapper; restore on exit."""
    originals = []
    try:
        for name, module_name, attr in spans:
            module = importlib.import_module(f"marketcast.{module_name}")
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def throughput(tracer: Tracer) -> dict[str, float]:
    """Workload throughputs from the boundary spans (0 where a leg did not run)."""
    s = tracer.seconds
    return {
        "train_windows_per_s": _ratio(tracer.counts["lstm.train_windows"], s["lstm.train"]),
        "predict_windows_per_s": _ratio(tracer.counts["lstm.predict_windows"], s["lstm.predict"]),
        "arima_fits_per_s": _ratio(tracer.calls["arima.fit_arma"], s["arima.auto_arima"]),
    }


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced iteration that took `run_s` seconds."""
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    covered = sum(tracer.self_seconds(name) for name in s if name not in GLUE_SPANS)
    return {
        "lstm.train_s": s["lstm.train"],
        "lstm.epochs": counts["lstm.epochs"],
        "lstm.backward_calls": calls["lstm.backward"],
        "lstm.backward_s": s["lstm.backward"],
        "lstm.adam_step_s": s["lstm.adam_step"],
        "lstm.forward_self_s": tracer.self_seconds("lstm.train"),
        "lstm.predict_s": s["lstm.predict"],
        "lstm.checkpoint_s": s["lstm.checkpoint"],
        "lstm.gflop": counts["lstm.flop"] / 1e9,
        "lstm.gflop_per_s": _ratio(counts["lstm.flop"] / 1e9, s["lstm.train"]),
        "arima.auto_arima_s": s["arima.auto_arima"],
        "arima.fit_arma_calls": calls["arima.fit_arma"],
        "arima.fit_arma_failed": tracer.errors["arima.fit_arma"],
        "arima.fit_arma_s": s["arima.fit_arma"],
        "arima.nfev": counts["arima.nfev"],
        "arima.us_per_eval": 1e6 * _ratio(s["arima.minimize"], counts["arima.nfev"]),
        "arima.forecast_s": s["arima.forecast"],
        "frame.load_csv_s": s["frame.load_csv"],
        "frame.load_csv_calls": calls["frame.load_csv"],
        "frame.forward_fill_s": s["frame.forward_fill"],
        "frame.scale_s": s["frame.scale"],
        "frame.make_windows_s": s["frame.make_windows"],
        "frame.window_mb": counts["frame.window_bytes"] / 2**20,
        "indicators.derive_s": s["indicators.derive"],
        "garch.fit_s": s["garch.fit"],
        "garch.nfev": counts["garch.nfev"],
        "garch.state_s": s["garch.state"],
        "chart.render_s": s["chart.render"],
        "chart.read_predictions_s": s["chart.read_predictions"],
        "metrics.report_s": s["metrics.report"],
        "pipeline.run_s": s["pipeline.run"],
        "pipeline.self_s": tracer.self_seconds("pipeline.run"),
        "pipeline.write_s": tracer.self_seconds("pipeline.write"),
        "pipeline.write_calls": calls["pipeline.write"],
        "cli.self_s": tracer.self_seconds("cli.main"),
        "trace.layer_share": _ratio(covered, run_s),
    }
