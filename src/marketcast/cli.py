"""Command-line interface.

Subcommands cover each pipeline stage plus an end-to-end run:

  synth       generate a synthetic daily price CSV
  features    correlation scan and feature selection on the training split
  fit-arima   order search / fit on one column, model written as JSON
  forecast    apply a stored model to the tail of a series
  fit-garch   GARCH(1,1) on a returns column, variance path as CSV
  train-lstm  the LSTM leg of the experiment on its own
  run         the full experiment (arima and/or lstm legs)
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
import json
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import arima as arima_mod
from . import garch as garch_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from .chart import chart_from_file, format_predictions, read_predictions
from .errors import DataError, ModelFitError
from .frame import forward_fill, load_csv
from .pipeline import (
    DUMPABLE_STAGES,
    FORECAST_MODES,
    MODEL_MODES,
    PipelineConfig,
    atomic_write_text,
    atomic_write_via,
    load_config,
    prediction_rows,
    prepare,
    run_pipeline,
    write_all,
)

OUT_DIR_ENV = "MARKETCAST_OUT"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


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
    p.add_argument("--target", dest="target_column", help="target column (default PX_LAST)")
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
    p.add_argument("--mode", dest="model_mode", choices=MODEL_MODES, help="model legs to run")
    p.add_argument("--forecast", dest="forecast_mode", choices=FORECAST_MODES, help="ARIMA forecast mode")
    p.add_argument("--bounds", dest="arima_bounds", help="ARIMA search bounds p,d,q (default 5,2,5)")


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
        regimes = synth_mod.RegimeSpec(
            break_fraction=args.break_frac,
            drift_before=args.drift_before,
            vol_before=args.vol_before,
            drift_after=args.drift_after,
            vol_after=args.vol_after,
            start_price=args.start_price,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    min_days = 216 + 1 + 10
    if args.days < min_days:
        raise DataError(f"--days must be at least {min_days} to feed the default pipeline")
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    frame = synth_mod.generate(args.seed, args.days, regimes)
    out = Path(args.out if args.out else Path(_default_out_dir()) / "synthetic_prices.csv")
    atomic_write_via(out, lambda tmp: synth_mod.write_csv(frame, tmp))
    print(f"wrote {out} ({args.days} rows, seed {args.seed})")
    return 0


def _cmd_features(args) -> int:
    cfg = _pipeline_config(args)
    # the threshold selection is reported even when the config is price_only
    prep = prepare(replace(cfg, feature_mode="with_features"))
    payload = {
        "correlations": prep.correlations_json(),
        "threshold": cfg.corr_threshold,
        "selected": prep.selected,
        "training_rows": prep.bounds[1],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    bounds = _parse_triple(args.bounds, int, "--bounds") if args.bounds else arima_mod.DEFAULT_BOUNDS
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
    out = Path(args.out if args.out else Path(_default_out_dir()) / "arima_model.json")
    atomic_write_text(out, json.dumps(arima_mod.model_to_dict(model), indent=2, sort_keys=True) + "\n")
    o = model.order
    print(f"order ({o.p},{o.d},{o.q})  aic {model.aic:.4f}  sigma2 {model.sigma2:.6g}  n {model.n_obs}")
    print(f"wrote {out}")
    return 0


def _cmd_forecast(args) -> int:
    try:
        with open(args.model, encoding="utf-8-sig") as fh:
            model = arima_mod.model_from_dict(json.load(fh))
    except OSError as exc:
        raise DataError(f"cannot read model: {exc}") from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError, DataError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    dates, series = _load_column(args.input, args.column)
    steps = args.steps
    if steps < 1:
        raise DataError("--steps must be >= 1")
    if steps >= len(series):
        raise DataError(f"--steps {steps} must be below the series length {len(series)}")
    mode = arima_mod.ForecastMode(args.mode)
    history = series[:-steps] if mode is arima_mod.ForecastMode.STATIC else series
    preds = arima_mod.forecast(model, history, steps, mode)
    out = Path(args.out if args.out else Path(_default_out_dir()) / "predictions_arima.csv")
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
    out_dir = Path(_default_out_dir())
    params_path = Path(args.out_params if args.out_params else out_dir / "garch_params.json")
    payload = {
        "alpha0": params.alpha0,
        "alpha1": params.alpha1,
        "beta1": params.beta1,
        "persistence": params.persistence,
        "long_run_variance": params.long_run_variance,
        "log_likelihood": garch_mod.log_likelihood(residuals, params),
        "n_obs": len(residuals),
    }
    csv_path = Path(args.out_csv if args.out_csv else out_dir / "garch_variance.csv")
    lines = ["date,residual,sigma2"]
    for d, e, s2 in zip(dates, residuals, sigma2):
        lines.append(f"{d.isoformat()},{e:.8f},{s2:.8f}")
    write_all(  # both files or neither
        {params_path: json.dumps(payload, indent=2, sort_keys=True) + "\n", csv_path: "\n".join(lines) + "\n"}
    )
    print(
        f"alpha0 {params.alpha0:.6g}  alpha1 {params.alpha1:.4f}  beta1 {params.beta1:.4f}  "
        f"persistence {params.persistence:.4f}"
    )
    print(f"wrote {params_path}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_run(args) -> int:
    artifacts = run_pipeline(_pipeline_config(args), dump_stages=args.dump_stage)
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
    return 0


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
    out = Path(args.out if args.out else Path(_default_out_dir()) / "chart.svg")
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
    p.add_argument("--break-frac", type=float, default=0.9, help="regime break position in (0, 1]")
    p.add_argument("--drift-before", type=float, default=0.08, help="annual drift before the break")
    p.add_argument("--vol-before", type=float, default=0.15, help="annual volatility before the break")
    p.add_argument("--drift-after", type=float, default=-0.25, help="annual drift after the break")
    p.add_argument("--vol-after", type=float, default=0.35, help="annual volatility after the break")
    p.add_argument("--start-price", type=float, default=1700.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="correlation scan and feature selection")
    _add_scan_flags(p)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("fit-arima", help="fit an ARIMA model to one CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="PX_LAST")
    p.add_argument("--bounds", default=None, help="search bounds p,d,q (default 5,2,5)")
    p.add_argument("--order", default=None, help="skip the search and fit this exact p,d,q")
    p.add_argument("--train-frac", type=float, default=1.0, help="fit on the first fraction of rows, in (0, 1]")
    p.add_argument("--out", default=None, help="model JSON path")
    p.set_defaults(func=_cmd_fit_arima)

    p = sub.add_parser("forecast", help="forecast the tail of a series with a stored model")
    p.add_argument("--model", required=True, help="model JSON from fit-arima")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="PX_LAST")
    p.add_argument("--steps", type=int, required=True, help="evaluate the last N observations")
    p.add_argument("--mode", choices=FORECAST_MODES, default="static")
    p.add_argument("--out", default=None, help="predictions CSV path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("fit-garch", help="fit GARCH(1,1) to a returns column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="PX_LAST")
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
