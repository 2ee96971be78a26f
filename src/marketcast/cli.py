"""Command-line interface.

Subcommands cover each pipeline stage plus an end-to-end run:

  synth       generate a synthetic daily price CSV
  features    correlation scan and feature selection on the training split
  fit-arima   order search / fit on one column, model written as JSON
  forecast    apply a stored model to the tail of a series
  fit-garch   GARCH(1,1) on a returns column, variance path as CSV
  train-lstm  the LSTM leg of the experiment on its own
  run         the full experiment: arima and/or lstm legs, or all three of the paper's legs
  evaluate    metrics report for a predictions file
  chart       SVG rendering of a predictions file

Exit codes: 0 success, 1 usage error, 2 data error, 3 model-fit error.
Errors and warnings print on stderr as one `error: <message>` or
`warning: <message>` line each.
A `run`/`train-lstm`/`features` setting out of range or of the wrong type
exits 2 before any input is read or any file is written.

The output directory of `run`/`train-lstm` is --out-dir, else the --config
file's out_dir, else $MARKETCAST_OUT, else the current directory; the other
commands use $MARKETCAST_OUT or the current directory for outputs not given
a path.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

# One BLAS thread per process, unless the user set a count: at the LSTM's
# shapes a second OpenBLAS thread gains no wall time, doubles the CPU, and
# runs many times slower when another process competes for the CPUs.
# OpenBLAS reads these when numpy loads it, so they are set before numpy or
# any module that imports it; children inherit them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import arima as arima_mod
from . import garch as garch_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from .chart import chart_from_file, format_predictions, read_predictions
from .errors import DataError, ModelFitError
from .frame import forward_fill, load_csv, read_json
from .pipeline import (
    DUMPABLE_STAGES,
    FORECAST_MODES,
    MODEL_MODES,
    PipelineConfig,
    atomic_write_text,
    atomic_write_via,
    json_text,
    load_config,
    prediction_rows,
    prepare,
    run_pipeline,
    write_all,
)

OUT_DIR_ENV = "MARKETCAST_OUT"
_BOUNDS_DEFAULT_TEXT = ",".join(map(str, arima_mod.DEFAULT_BOUNDS))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _out_path(given, default_name: str) -> Path:
    """The path an output flag gave, else `default_name` in the default output directory."""
    return Path(given) if given else Path(_default_out_dir()) / default_name


def _parse_triple(text: str, cast, label: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise DataError(f"{label} expects 3 comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"{label}: {exc}") from exc


def _load_column(path, column: str) -> tuple[list, np.ndarray]:
    frame = forward_fill(load_csv(path))
    return list(frame.dates), frame.column(column)


def _add_scan_flags(p: argparse.ArgumentParser):
    """Flags of the preprocessing that `features` reports on."""
    p.add_argument("--input", dest="input_path", help="input CSV (required unless --config provides it)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--target", dest="target_column", help=f"target column (default {PipelineConfig.target_column})")
    p.add_argument("--splits", help="train,val,test fractions, e.g. 0.6,0.2,0.2")
    p.add_argument("--threshold", dest="corr_threshold", type=float, help="|correlation| cutoff for features")


def _add_train_flags(p: argparse.ArgumentParser):
    """Flags of a run that writes artifacts and trains the LSTM."""
    p.add_argument("--out-dir", help=f"output directory (default: the config's out_dir, ${OUT_DIR_ENV} or .)")
    p.add_argument("--window", type=int, help="window length W")
    p.add_argument("--horizon", type=int, help="steps ahead to predict")
    p.add_argument("--features", dest="feature_mode", choices=("with", "without"),
                   help="include selected indicator/auxiliary features, or price only")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", dest="lstm_epochs", type=int, help="LSTM max epochs")
    p.add_argument("--patience", dest="lstm_patience", type=int, help="LSTM early-stopping patience")
    p.add_argument("--hidden", dest="lstm_hidden", type=int, help="LSTM hidden units per layer")
    p.add_argument("--dropout", dest="lstm_dropout", type=float, help="LSTM dropout rate")
    p.add_argument("--batch", dest="lstm_batch", type=int, help="LSTM batch size")
    p.add_argument("--lr", dest="lstm_lr", type=float, help="LSTM learning rate")
    p.add_argument("--dump-stage", action="append", default=[], metavar="STAGE",
                   help=f"dump an intermediate ({', '.join(DUMPABLE_STAGES)}, or all); repeatable")


def _add_arima_flags(p: argparse.ArgumentParser):
    """Flags only `run` takes: the model legs, and the ARIMA search and forecast."""
    p.add_argument("--mode", dest="model_mode", choices=MODEL_MODES,
                   help="model legs to run; all runs the paper's three legs, each in its own subdirectory: "
                        "arima_<forecast>, and lstm_features and lstm_price_only whatever --features says")
    p.add_argument("--forecast", dest="forecast_mode", choices=FORECAST_MODES, help="ARIMA forecast mode")
    p.add_argument("--bounds", dest="arima_bounds",
                   help=f"ARIMA search bounds p,d,q (default {_BOUNDS_DEFAULT_TEXT})")


_CONFIG_FIELDS = {f.name for f in fields(PipelineConfig)}


def _pipeline_config(args) -> PipelineConfig:
    """The config file (if any) overridden by the flags given; a flag's dest is its field."""
    flags = {name: v for name, v in vars(args).items() if name in _CONFIG_FIELDS and v is not None}
    if "splits" in flags:
        flags["splits"] = _parse_triple(flags["splits"], float, "--splits")
    if "arima_bounds" in flags:
        flags["arima_bounds"] = _parse_triple(flags["arima_bounds"], int, "--bounds")
    if "feature_mode" in flags:
        flags["feature_mode"] = "with_features" if flags["feature_mode"] == "with" else "price_only"

    defaults = {"out_dir": _default_out_dir()}
    if args.config is not None:
        return load_config(args.config, flags, defaults)
    if "input_path" not in flags:
        raise DataError("either --input or --config is required")
    return PipelineConfig(**{**defaults, **flags})


def _cmd_synth(args) -> int:
    try:
        regimes = synth_mod.RegimeSpec(**{f.name: getattr(args, f.name) for f in fields(synth_mod.RegimeSpec)})
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    min_days = 199 + 6  # what every command's preprocessing needs
    if args.days < min_days:
        raise DataError(
            f"--days must be at least {min_days}: MOV_AVG_200D's 199 warm-up rows, then 6 for a "
            "60/20/20 split with 2 test rows"
        )
    if args.days > synth_mod.MAX_DAYS:
        raise DataError(f"--days must be at most {synth_mod.MAX_DAYS}: later trading days run past the year 9999")
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    try:
        frame = synth_mod.generate(args.seed, args.days, regimes)
    except ValueError as exc:  # regimes that leave the float range
        raise DataError(str(exc)) from exc
    out = _out_path(args.out, "synthetic_prices.csv")
    atomic_write_via(out, lambda tmp: synth_mod.write_csv(frame, tmp))
    print(f"wrote {out} ({args.days} rows, seed {args.seed})")
    return 0


def _cmd_features(args) -> int:
    cfg = _pipeline_config(args)
    prep = prepare(cfg)
    payload = {
        "correlations": prep.correlations_json(),
        "threshold": cfg.corr_threshold,
        "selected": prep.selected,
        "training_rows": prep.bounds[1],
    }
    text = json_text(payload)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fit_arima(args) -> int:
    # NaN fails both comparisons, and an infinite value fails one of them
    if not 0.0 < args.train_frac <= 1.0:
        raise DataError(f"--train-frac must be a finite value in (0, 1], got {args.train_frac}")
    order = _parse_triple(args.order, int, "--order") if args.order is not None else None
    bounds = _parse_triple(args.bounds, int, "--bounds") if args.bounds is not None else arima_mod.DEFAULT_BOUNDS
    for flag, triple in (("--order", order), ("--bounds", bounds)):
        if triple is not None and min(triple) < 0:
            raise DataError(f"{flag} must be three non-negative integers, got {triple}")
    _, series = _load_column(args.input, args.column)
    n_fit = int(len(series) * args.train_frac)
    if n_fit < 1:
        raise DataError("--train-frac leaves no observations to fit")
    series = series[:n_fit]
    if order is not None:
        p, d, q = order
        model = arima_mod.fit_arma(arima_mod.difference(series, d), p, q)
        model = replace(model, order=arima_mod.ArimaOrder(p, d, q))
    else:
        model = arima_mod.auto_arima(series, bounds=bounds)
    out = _out_path(args.out, "arima_model.json")
    atomic_write_text(out, json_text(arima_mod.model_to_dict(model)))
    o = model.order
    print(f"order ({o.p},{o.d},{o.q})  aic {model.aic:.4f}  sigma2 {model.sigma2:.6g}  n {model.n_obs}")
    print(f"wrote {out}")
    return 0


def _cmd_forecast(args) -> int:
    steps = args.steps
    if steps < 1:
        raise DataError("--steps must be >= 1")
    payload = read_json(args.model, "malformed model file")
    try:
        model = arima_mod.model_from_dict(payload)
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    dates, series = _load_column(args.input, args.column)
    if steps >= len(series):
        raise DataError(f"--steps {steps} must be below the series length {len(series)}")
    mode = arima_mod.ForecastMode(args.mode)
    history = series[:-steps] if mode is arima_mod.ForecastMode.STATIC else series
    preds = arima_mod.forecast(model, history, steps, mode)
    out = _out_path(args.out, "predictions_arima.csv")
    atomic_write_text(out, format_predictions(*prediction_rows(dates, series, preds)))
    print(f"wrote {out}")
    return 0


def _cmd_fit_garch(args) -> int:
    dates, series = _load_column(args.input, args.column)
    if args.input_kind == "prices":
        if np.any(series <= 0):
            raise DataError(f"column {args.column!r} has non-positive prices; cannot take log returns")
        returns = 100.0 * np.diff(np.log(series))
        dates = dates[1:]
    else:
        returns = series
    residuals = returns - returns.mean()
    params = garch_mod.fit_garch11(residuals)
    sigma2 = garch_mod.garch_state(params, residuals)
    params_path = _out_path(args.out_params, "garch_params.json")
    payload = {
        **asdict(params),
        "persistence": params.persistence,
        "long_run_variance": params.long_run_variance,
        "log_likelihood": garch_mod.log_likelihood(residuals, params),
        "n_obs": len(residuals),
    }
    csv_path = _out_path(args.out_csv, "garch_variance.csv")
    lines = ["date,residual,sigma2"]
    for d, e, s2 in zip(dates, residuals, sigma2):
        lines.append(f"{d.isoformat()},{e:.8f},{s2:.8f}")
    # both files or neither; pairs, not a dict, so two flags naming one file reach write_all
    write_all([(params_path, json_text(payload)), (csv_path, "\n".join(lines) + "\n")])
    print(
        f"alpha0 {params.alpha0:.6g}  alpha1 {params.alpha1:.4f}  beta1 {params.beta1:.4f}  "
        f"persistence {params.persistence:.4f}"
    )
    print(f"wrote {params_path}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_run(args) -> int:
    cfg = _pipeline_config(args)
    artifacts = run_pipeline(cfg, dump_stages=args.dump_stage)
    if cfg.model_mode != "all":
        _print_written(artifacts)
        return 0
    for leg_artifacts in artifacts.values():
        _print_written(leg_artifacts)
    print()
    header = f"{'leg':<18}{'mae':>12}{'rmse':>12}{'acc%':>9}{'acc 1st%':>10}{'acc 2nd%':>10}"
    print(header)
    print("-" * len(header))
    for name, leg_artifacts in artifacts.items():
        (rep,) = leg_artifacts.reports.values()  # each leg directory holds one model leg
        print(
            f"{name:<18}{rep.mae:>12.2f}{rep.rmse:>12.2f}{rep.accuracy_pct:>9.2f}"
            f"{rep.accuracy_first_half_pct:>10.2f}{rep.accuracy_second_half_pct:>10.2f}"
        )
    return 0


def _print_written(artifacts) -> None:
    for leg in artifacts.predictions:
        print(f"wrote {artifacts.predictions[leg]}")
        print(f"wrote {artifacts.metrics[leg]}")
        print(f"wrote {artifacts.charts[leg]}")
    if artifacts.arima_model:
        print(f"wrote {artifacts.arima_model}")
    if artifacts.checkpoint:
        print(f"wrote {artifacts.checkpoint}")
    print(f"wrote {artifacts.selected_features}")
    print(f"wrote {artifacts.resolved_config}")
    for name, path in artifacts.stages.items():
        print(f"dumped {name} -> {path}")


def _cmd_evaluate(args) -> int:
    dates, actual, predicted = read_predictions(args.input)
    have = np.isfinite(predicted)
    if have.sum() < 2:
        raise DataError("need at least 2 predicted rows to evaluate")
    idx = np.flatnonzero(have)
    rep = metrics_mod.report([dates[i] for i in idx], actual[idx], predicted[idx])
    text = metrics_mod.format_report(rep)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_chart(args) -> int:
    svg = chart_from_file(args.input, title=args.title)
    out = _out_path(args.out, "chart.svg")
    atomic_write_text(out, svg)
    print(f"wrote {out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="marketcast", description="Price forecasting toolkit and benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic daily price CSV")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=2770, help="number of trading-day rows")
    regime = synth_mod.RegimeSpec  # its fields are the flags' dests, its defaults their defaults
    p.add_argument("--break-frac", dest="break_fraction", metavar="BREAK_FRAC", type=float,
                   default=regime.break_fraction, help="regime break position in (0, 1]")
    p.add_argument("--drift-before", type=float, default=regime.drift_before, help="annual drift before the break")
    p.add_argument("--vol-before", type=float, default=regime.vol_before, help="annual volatility before the break")
    p.add_argument("--drift-after", type=float, default=regime.drift_after, help="annual drift after the break")
    p.add_argument("--vol-after", type=float, default=regime.vol_after, help="annual volatility after the break")
    p.add_argument("--start-price", type=float, default=regime.start_price)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="correlation scan and feature selection")
    _add_scan_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit-arima", help="fit an ARIMA model to one CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=PipelineConfig.target_column)
    p.add_argument("--bounds", default=None, help=f"search bounds p,d,q (default {_BOUNDS_DEFAULT_TEXT})")
    p.add_argument("--order", default=None, help="skip the search and fit this exact p,d,q")
    p.add_argument("--train-frac", type=float, default=1.0, help="fit on the first fraction of rows, in (0, 1]")
    p.add_argument("--out", default=None, help="model JSON path")
    p.set_defaults(func=_cmd_fit_arima)

    p = sub.add_parser("forecast", help="forecast the tail of a series with a stored model")
    p.add_argument("--model", required=True, help="model JSON from fit-arima")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=PipelineConfig.target_column)
    p.add_argument("--steps", type=int, required=True, help="evaluate the last N observations")
    p.add_argument("--mode", choices=FORECAST_MODES, default="static")
    p.add_argument("--out", default=None, help="predictions CSV path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("fit-garch", help="fit GARCH(1,1) to a returns column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default=PipelineConfig.target_column)
    p.add_argument("--input-kind", choices=("returns", "prices"), default="prices",
                   help="treat the column as returns, or derive demeaned log returns from prices")
    p.add_argument("--out-params", default=None, help="parameters JSON path")
    p.add_argument("--out-csv", default=None, help="variance path CSV path")
    p.set_defaults(func=_cmd_fit_garch)

    p = sub.add_parser("train-lstm", help="run only the LSTM leg of the experiment")
    _add_scan_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_run, model_mode="lstm")

    p = sub.add_parser("run", help="run the full experiment")
    _add_scan_flags(p)
    _add_train_flags(p)
    _add_arima_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("evaluate", help="metrics report for a predictions CSV")
    p.add_argument("--input", required=True, help="predictions CSV (date,actual,predicted)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("chart", help="render a predictions CSV as an SVG chart")
    p.add_argument("--input", required=True, help="predictions CSV (date,actual,predicted)")
    p.add_argument("--out", default=None, help="SVG path")
    p.add_argument("--title", default=None)
    p.set_defaults(func=_cmd_chart)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a warning prints as one `warning:` line, with no source path or code
    saved_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
