"""marketcast benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload arima_grid --seed 0 --seconds 30 --trace 0

The set-up time is taken first, as fresh interpreters importing
marketcast.cli. The workload then runs in its own fresh process
(perfbench/worker.py) in a closed loop, and the correctness gate checks every
iteration. The metrics named in BENCHMARK.json are printed one per line with
their units, the environment and prediction hashes after them, and a JSON
object with the keys correct, attempted, failed and metrics as the last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A full record is kept under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("lstm_train", "arima_grid")
SETUP_REPS = 3
# the whole command, set-up and workload, ends within this many seconds
TIME_LIMIT_S = 170.0
COMPUTED = ("lstm.gflop", "lstm.gflop_per_s", "frame.window_mb")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import marketcast.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if args.seed < 0:
        return fail("--seed must be a non-negative integer")
    if not (ROOT / "src" / "marketcast" / "__init__.py").is_file():
        return fail(f"no marketcast sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    setup = []
    try:
        if not args.trace:
            # the median keeps the first import, which may write bytecode caches, out
            setup = [import_seconds(env) for _ in range(SETUP_REPS)]
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work), "--result", str(work / "result.json")],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - began)),
        )
        record = json.loads((work / "result.json").read_text())
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"benchmark process failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = record["iterations"]
    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    run_times = [it["run_s"] for it in untraced]
    failed = sum(1 for it in iterations if it["problems"])
    correct = failed == 0 and not record["run_problems"]

    throughput = {name: statistics.median(it["throughput"][name] for it in untraced)
                  for name in untraced[0]["throughput"]}
    if args.trace:
        metrics = dict(record["layers"], **throughput, **record["accuracy"])
        metrics["trace.overhead_s"] = (statistics.median(it["run_s"] for it in traced)
                                       - statistics.median(run_times))
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(run_times),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"declared metrics not measured: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(iterations)} iterations, closed loop, one caller")
    if setup:
        print(f"setup_s {metrics['setup_s']:.4f} s  (median of {SETUP_REPS} fresh imports of marketcast.cli)")
    p = tail(run_times)
    tail_text = f"p{p[0]} {p[1]:.4f} s" if p else f"max {max(run_times):.4f} s (too few for a percentile)"
    print(f"run_s {statistics.median(run_times):.4f} s median, {tail_text}, n={len(run_times)} untraced")
    print(f"peak_rss_mb {record['peak_rss_mb']:.1f} MiB")
    print(f"failed_frac {failed / len(iterations):.4f} ratio  ({failed} of {len(iterations)} iterations)")
    if args.trace:
        for name in (m["name"] for m in declared):
            note = "  (computed)" if name in COMPUTED else ""
            print(f"{name} {metrics[name]:.6g} {units[name]}{note}")
    else:
        for name, value in {**throughput, **record["accuracy"]}.items():
            print(f"{name} {value:.4f} {units[name]}" if value else f"{name} - (leg not run)")
    for problem in record["run_problems"] + [p for it in iterations for p in it["problems"]]:
        print(f"FAILED {problem}")
    for name, digest in record["prediction_sha256"].items():
        print(f"sha256 {name} {digest}")
    print("env " + json.dumps(record["env"], sort_keys=True))

    record.update(setup_s_samples=setup, metrics=metrics, correct=correct)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
