"""Self-tests of the benchmark's correctness gate and layer trace.

    python3 perfbench/selftest.py

Runs arima_grid's six-command session with a (2,1,0) order search in place
of (5,2,5), on the seed-0 input: a fraction of a second per iteration. Exits
1 if any check fails.
"""

from __future__ import annotations

import functools
import importlib
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from marketcast import arima, synth  # noqa: E402

WORK = worker.ROOT / ".perfbench" / "selftest"
QUICK = "quick_session"
REQUIRED = worker.REQUIRED["arima_grid"]
PREDICTIONS = "predictions_arima.csv"


def module(name: str):
    return importlib.import_module(f"marketcast.{name}")


def wrapped_attributes() -> dict:
    return {(m, a): getattr(module(m), a) for _, m, a in tracing.FULL_SPANS}


def session(csv_path: Path, spans=tracing.BOUNDARY_SPANS) -> dict[str, bytes]:
    # one output directory throughout: resolved_config.json records its path
    out_dir = WORK / "out"
    it = worker.run_iteration(QUICK, csv_path, out_dir, spans)
    assert it["error"] is None, it["error"]
    return gate.snapshot(out_dir)


def replace_last_prediction(data: bytes, cell: str) -> bytes:
    lines = data.decode().splitlines()
    date, actual, _ = lines[-1].split(",")
    lines[-1] = f"{date},{actual},{cell}"
    return ("\n".join(lines) + "\n").encode()


def test_clean_iteration_passes(csv_path, reference):
    assert gate.check(reference, REQUIRED, None) == []
    assert gate.check(session(csv_path), REQUIRED, reference) == []


def test_tampered_predictions_file_is_flagged(csv_path, reference):
    files = dict(reference)
    data = files[PREDICTIONS]
    digit = data.rstrip()[-1:]
    files[PREDICTIONS] = data.rstrip()[:-1] + (b"1" if digit != b"1" else b"2") + b"\n"
    assert gate.check(files, REQUIRED, reference) == [f"{PREDICTIONS}: differs from the first iteration"]


def test_nan_prediction_is_flagged(csv_path, reference):
    # format_predictions writes NaN as an empty cell; a literal nan is caught too
    for cell in ("", "nan", "inf"):
        files = dict(reference, **{PREDICTIONS: replace_last_prediction(reference[PREDICTIONS], cell)})
        problems = gate.check(files, REQUIRED, None)
        assert len(problems) == 1 and "not a finite number" in problems[0], (cell, problems)


def test_missing_artifact_is_flagged(csv_path, reference):
    files = {k: v for k, v in reference.items() if k != "chart.svg"}
    assert gate.check(files, REQUIRED, None) == ["chart.svg: not written"]


def test_nondeterministic_rerun_is_flagged(csv_path, reference):
    original = arima.forecast
    calls = []

    def drifting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs) + (1e-3 if len(calls) > 1 else 0.0)

    arima.forecast = drifting
    try:
        records, _ = worker.closed_loop(QUICK, [csv_path], [0], WORK / "out", 0.0, False)
    finally:
        arima.forecast = original
    assert records[0]["problems"] == [], records[0]["problems"]
    assert f"{PREDICTIONS}: differs from the first iteration" in records[1]["problems"]


def test_exception_is_a_failed_iteration(csv_path, reference):
    original = arima.forecast

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    arima.forecast = broken
    try:
        records, refs = worker.closed_loop(QUICK, [csv_path], [0], WORK / "out", 0.0, False)
    finally:
        arima.forecast = original
    assert refs == {}
    assert all(any("injected" in p for p in r["problems"]) for r in records)


def test_trace_restores_attributes_and_keeps_hashes(csv_path, reference):
    originals = wrapped_attributes()
    traced = session(csv_path, tracing.FULL_SPANS)
    assert all(now is originals[key] for key, now in wrapped_attributes().items())
    assert gate.prediction_hashes(traced) == gate.prediction_hashes(reference)
    assert gate.check(traced, REQUIRED, reference) == []


def test_trace_restores_attributes_after_an_error(csv_path, reference):
    originals = wrapped_attributes()
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer, tracing.FULL_SPANS):
            module("arima").auto_arima([1.0], bounds=(0, 0, 0))
    except Exception:
        pass
    assert tracer.errors["arima.auto_arima"] == 1
    assert all(now is originals[key] for key, now in wrapped_attributes().items())


def test_trace_counts_repeat(csv_path, reference):
    runs = []
    for _ in range(2):
        it = worker.run_iteration(QUICK, csv_path, WORK / "out", tracing.FULL_SPANS)
        runs.append(tracing.layer_metrics(it["tracer"], it["run_s"]))
    exact = ("arima.fit_arma_calls", "arima.nfev", "garch.nfev", "frame.load_csv_calls",
             "pipeline.write_calls", "frame.window_mb")
    assert [runs[0][k] for k in exact] == [runs[1][k] for k in exact]
    assert runs[0]["arima.fit_arma_calls"] == 6 and runs[0]["frame.load_csv_calls"] == 4
    assert runs[0]["arima.nfev"] > 0 and runs[0]["garch.nfev"] > 0


def main() -> int:
    worker.WORKLOADS[QUICK] = functools.partial(worker.classical_session, bounds="2,1,0")
    worker.REQUIRED[QUICK] = REQUIRED
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        csv_path = WORK / "input.csv"
        synth.write_csv(synth.generate(0, worker.ROWS), csv_path)
        if csv_path.read_bytes() != worker.BUNDLED_DATA.read_bytes():
            print("FAIL seed 0 input differs from the bundled data")
            return 1
        reference = session(csv_path)
        failures = 0
        tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
        for name, fn in tests:
            try:
                fn(csv_path, reference)
                print(f"ok   {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
        print(f"{len(tests) - failures} passed, {failures} failed")
        return 1 if failures else 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
