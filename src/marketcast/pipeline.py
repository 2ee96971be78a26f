"""End-to-end experiment runs: ingest, features, models, reports, charts.

`prepare` runs ingest -> forward-fill -> indicator derivation -> chronological
split -> scaler fit on the training rows -> correlation-based feature
selection; it is the one preprocessing path, shared with `marketcast
features`. A run then uses the selected features or the price alone, as its
feature_mode says. When the LSTM or a windows dump reads windows, the windows
stage scales the frame and builds them; then the requested model legs run:

  arima: order search on the unscaled close over the train+validation span,
         then a STATIC (fixed-origin) or ROLLING (one-step) forecast of the
         test span;
  lstm:  windowed training in scaled space with early stopping on the
         validation split, one-step test predictions mapped back to prices.
         The batches, the validation and the test predictions may run on
         worker processes, one per layer (see `lstm`), which `_fit_leg`
         keeps from training to the test predictions; they have exited by
         the time it returns or raises.

Both legs score the same test rows, so their metrics files are directly
comparable. Model mode "all" is the paper's comparison: three one-directory
runs (`_leg_configs`) on one `prepare`, written by one `write_all`. Windows
are built over the whole frame and partitioned by target row; a window may
therefore read rows from before its own split, which is ordinary use of past
data and leaks nothing from the future. Each directory's run has two steps.
The fit step, `_fit_leg`, returns plain data: the windows, and each model
leg's fitted model and test predictions. The file step, `_leg_files`, then
names every path once, in its `RunArtifacts`, and builds each file; `write_all`
stages all of them beside their targets and renames them into place only once
every one is written, so a failed run leaves the earlier files as they were.

`write_all` is the one function that puts a file on disk: every command writes
through it, the one-file commands by way of `atomic_write_text` and
`atomic_write_via`. Every JSON artifact's text comes from `json_text`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import arima as arima_mod
from . import metrics as metrics_mod
from .chart import format_predictions, render_chart
from .errors import DataError, MarketcastError
from .frame import (
    ScalerParams,
    SplitSpec,
    TimeSeriesFrame,
    apply_scaler,
    correlation_vector,
    fit_scaler,
    forward_fill,
    invert_scaler,
    load_csv,
    make_windows,
    read_json,
    select_features,
    split_bounds,
    write_csv,
)
from .indicators import derive_indicators
from .lstm import LstmConfig, init_network, layer_workers, param_layout, predict_series, save_checkpoint, train

__all__ = [
    "PipelineConfig",
    "Prepared",
    "RunArtifacts",
    "prepare",
    "prediction_rows",
    "run_pipeline",
    "load_config",
    "atomic_write_text",
    "atomic_write_via",
    "write_all",
    "json_text",
    "DUMPABLE_STAGES",
    "FORECAST_MODES",
    "MODEL_MODES",
]

FEATURE_MODES = ("with_features", "price_only")
MODEL_MODES = ("arima", "lstm", "both", "all")
FORECAST_MODES = tuple(mode.value for mode in arima_mod.ForecastMode)
DUMPABLE_STAGES = ("filled", "enriched", "scaler", "features", "windows")

# rows of history shown before the forecast in predictions files and charts
PREDICTION_CONTEXT_ROWS = 60
# the longest file name, in bytes, that common file systems (ext4, XFS, APFS) take
NAME_MAX = 255
# the largest hidden size whose (4H x H) float64 recurrent weights numpy can
# address: for one more, their byte count exceeds the largest array size
MAX_LSTM_HIDDEN = math.isqrt(sys.maxsize // 32)


def _is_int(value) -> bool:
    # a bool is not an integer here, although Python treats it as one
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # an integer beyond a float's range is not a number here: float() of it overflows
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


# a field's annotated type -> (check, noun for one value, noun for several)
_TYPE_CHECKS = {
    int: (_is_int, "an integer", "integers"),
    float: (_is_real, "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}


def _triple(name: str, value, check, kind: str) -> tuple:
    if not isinstance(value, (tuple, list)) or len(value) != 3 or not all(map(check, value)):
        raise DataError(f"{name} must be three {kind}, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    out_dir: str = "."
    target_column: str = "PX_LAST"
    splits: tuple[float, float, float] = (0.6, 0.2, 0.2)
    window: int = 216
    horizon: int = 1
    corr_threshold: float = 0.5
    feature_mode: str = "with_features"
    model_mode: str = "both"
    forecast_mode: str = "static"
    arima_bounds: tuple[int, int, int] = arima_mod.DEFAULT_BOUNDS
    lstm_hidden: int = LstmConfig.hidden_size
    lstm_layers: int = LstmConfig.num_layers
    lstm_dropout: float = LstmConfig.dropout_rate
    lstm_lr: float = LstmConfig.learning_rate
    lstm_batch: int = LstmConfig.batch_size
    lstm_epochs: int = LstmConfig.max_epochs
    lstm_patience: int = LstmConfig.patience
    seed: int = LstmConfig.seed

    def __post_init__(self):
        """Check every setting, so a bad one fails before any work starts."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            elements = get_args(kind)
            if elements:  # the (a, b, c) triples: splits and arima_bounds
                check, _, plural = _TYPE_CHECKS[elements[0]]
                triple = _triple(name, value, check, plural)
                object.__setattr__(self, name, tuple(map(elements[0], triple)))
            else:
                check, noun, _ = _TYPE_CHECKS[kind]
                if not check(value):
                    raise DataError(f"{name} must be {noun}, got {value!r}")
        for name, allowed in (
            ("feature_mode", FEATURE_MODES),
            ("model_mode", MODEL_MODES),
            ("forecast_mode", FORECAST_MODES),
        ):
            if getattr(self, name) not in allowed:
                raise DataError(f"{name} must be one of {allowed}")
        SplitSpec(self.splits)  # validates sign and sum
        if self.window < 1 or self.horizon < 1:
            raise DataError("window and horizon must be >= 1")
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise DataError("corr_threshold must be in [0, 1]")
        if min(self.arima_bounds) < 0:
            raise DataError("arima_bounds must be three non-negative integers")
        if self.lstm_hidden > MAX_LSTM_HIDDEN:
            raise DataError(
                f"lstm_hidden must be at most {MAX_LSTM_HIDDEN}, the largest layer numpy can allocate, "
                f"got {self.lstm_hidden}"
            )
        try:
            self.lstm_config(input_size=1)  # LstmConfig holds the LSTM range rules
        except ValueError as exc:
            raise DataError(f"LSTM setting out of range: {exc}") from exc

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        clean = {}
        for key, value in payload.items():
            if key.startswith("_"):
                continue  # annotation keys in resolved configs
            if key not in known:
                raise DataError(f"unknown config key {key!r}")
            clean[key] = value
        if "input_path" not in clean:
            raise DataError("config needs an input_path")
        return cls(**clean)

    def lstm_config(self, input_size: int) -> LstmConfig:
        return LstmConfig(
            input_size=input_size,
            hidden_size=self.lstm_hidden,
            num_layers=self.lstm_layers,
            dropout_rate=self.lstm_dropout,
            learning_rate=self.lstm_lr,
            batch_size=self.lstm_batch,
            max_epochs=self.lstm_epochs,
            # short runs keep the config valid: patience may not exceed max_epochs
            patience=min(self.lstm_patience, self.lstm_epochs),
            seed=self.seed,
        )


# each field's annotated type, resolved once; __post_init__ checks against it
_FIELD_TYPES = get_type_hints(PipelineConfig)


def load_config(path, overrides: dict | None = None, defaults: dict | None = None) -> PipelineConfig:
    """Read a JSON config file and apply flag overrides on top.

    `defaults` fill the keys the file leaves out. The file is validated
    before the overrides apply, so a bad value in it fails even when a flag
    replaces it.
    """
    payload = read_json(path, "config is not valid JSON")
    if not isinstance(payload, dict):
        raise DataError("config file must hold a JSON object")
    cfg = PipelineConfig.from_dict({**(defaults or {}), **payload})
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


@dataclass(frozen=True)
class RunArtifacts:
    """The paths a run wrote, and the report each model leg's metrics file was made from."""

    predictions: dict[str, str]
    metrics: dict[str, str]
    charts: dict[str, str]
    checkpoint: str | None
    arima_model: str | None
    selected_features: str
    resolved_config: str
    stages: dict[str, str]
    reports: dict[str, metrics_mod.ForecastReport]


@contextmanager
def _stage(name: str, kind: str = "stage"):
    """Prefix a MarketcastError raised inside with `<kind> <name>: ` and re-raise it."""
    try:
        yield
    except MarketcastError as exc:
        head = exc.args[0] if exc.args else str(exc)
        exc.args = (f"{kind} {name}: {head}",) + tuple(exc.args[1:])
        raise


def atomic_write_text(path, content: str) -> None:
    """Write one text file through `write_all`."""
    write_all([(path, content)])


def atomic_write_via(path, write_fn) -> None:
    """Write one file through `write_all`, for writers that need a path (np.savez, write_csv)."""
    write_all([(path, write_fn)])


def write_all(files, new_dirs=()) -> None:
    """Write every file of `files`, or none.

    `files` holds (path, content) pairs, such as a dict's items(); a content
    is text, or a write_fn(staging) that fills the file. Two paths that
    resolve to one file are a DataError, raised before anything is touched.
    Each of `new_dirs`, with its missing parents, is created next. A target
    that is a directory is refused. Each file is then written in full to a staging
    file beside its target, created here under a random hidden name that
    ends with the target's name, less as much of its front as keeps it within
    NAME_MAX bytes (np.savez needs the suffix), and with the mode the umask
    gives a new file; only when every file is staged does each staging file
    replace its target. On any exception, the staging files are removed,
    then the directories made here, deepest first, and the exception
    propagates. A failure before the renames leaves every target as it was,
    so a failed rerun keeps the earlier run's files whole; a directory that
    existed before is never removed. Any OS failure is a DataError naming
    the target.
    """
    files = [(Path(path), content) for path, content in files]
    seen: dict[str, Path] = {}
    for path, _ in files:
        key = os.path.realpath(path)
        if key in seen:
            raise DataError(f"cannot write {seen[key]} and {path}: they name one file")
        seen[key] = path
    made: list[Path] = []
    staged: dict[Path, Path] = {}
    try:
        for new_dir in map(Path, new_dirs):
            for path in reversed([new_dir, *new_dir.parents]):
                if path.exists():
                    continue
                try:
                    path.mkdir()
                except OSError as exc:
                    raise DataError(f"cannot create {path}: {exc.strerror or exc}") from exc
                made.append(path)
        for path, content in files:
            if path.is_dir():
                raise DataError(f"cannot write {path}: Is a directory")
            token, tail = os.urandom(6).hex(), path.name
            # the staging name is 14 bytes longer than the target's: drop the
            # name's front, never the suffix np.savez needs, until it fits
            while len(os.fsencode(f".{token}.{tail}")) > NAME_MAX:
                tail = tail[1:]
            staging = path.with_name(f".{token}.{tail}")
            try:
                # O_EXCL: the name is this call's alone; 0o666 lets the umask set the mode
                fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged[path] = staging
                if callable(content):
                    os.close(fd)
                    content(staging)
                else:
                    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                        fh.write(content)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        for path, staging in staged.items():
            try:
                os.replace(staging, path)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        for staging in staged.values():
            with suppress(OSError):
                os.unlink(staging)
        for path in reversed(made):
            with suppress(OSError):
                path.rmdir()
        raise


def prediction_rows(dates, actual: np.ndarray, preds: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Dates, actuals and predictions of a forecast of the last len(preds) rows.

    Up to PREDICTION_CONTEXT_ROWS rows of history come first, predicted as NaN.
    """
    start = len(actual) - len(preds)
    context = min(PREDICTION_CONTEXT_ROWS, start)
    return (
        list(dates[start - context :]),
        actual[start - context :],
        np.concatenate([np.full(context, np.nan), preds]),
    )


@dataclass(frozen=True)
class Prepared:
    """The preprocessed experiment inputs, before windowing."""

    filled: TimeSeriesFrame  # ingested and forward-filled
    enriched: TimeSeriesFrame  # plus indicators, filled again
    bounds: list[int]  # split row bounds [0, train end, validation end, n]
    scaler: ScalerParams  # fitted on the training rows
    correlations: dict[str, float]  # of each column with the target, training rows
    selected: list[str]  # features over the threshold, whatever the feature_mode

    def correlations_json(self) -> dict:
        """The correlations with NaN (a constant column) as None, for JSON."""
        return {k: (v if math.isfinite(v) else None) for k, v in self.correlations.items()}


def prepare(config: PipelineConfig) -> Prepared:
    """Ingest, fill, derive indicators, split, scale and select features.

    A failure is re-raised with the name of its stage as a prefix.
    """
    with _stage("ingest"):
        frame = load_csv(config.input_path)
    with _stage("fill"):
        filled = forward_fill(frame)
        if config.target_column not in filled.columns:
            raise DataError(f"target column {config.target_column!r} not in input")
    with _stage("indicators"):
        enriched = derive_indicators(filled, price_column=config.target_column)
        # indicator warmup rows carry leading NaN; a second fill drops them
        enriched = forward_fill(enriched)
    with _stage("split"):
        n = len(enriched)
        bounds = split_bounds(n, SplitSpec(config.splits))
        b1, b2 = bounds[1], bounds[2]
        if min(b1, b2 - b1, n - b2) < 0 or n - b2 < 2:
            raise DataError(f"test split has {n - b2} rows; need at least 2")
        training = enriched.rows(0, b1)
    with _stage("scale"):
        scaler = fit_scaler(training)
    with _stage("features"):
        correlations = correlation_vector(training, config.target_column)
        selected = select_features(correlations, config.corr_threshold)
    return Prepared(
        filled=filled,
        enriched=enriched,
        bounds=bounds,
        scaler=scaler,
        correlations=correlations,
        selected=selected,
    )


def json_text(payload) -> str:
    """The text of a JSON artifact: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _leg_configs(config: PipelineConfig) -> dict[str, PipelineConfig]:
    """The one-directory runs a config asks for, by name.

    Model mode "all" asks for the paper's three legs, each in its own
    subdirectory of out_dir: `arima_<forecast_mode>` (with the config's
    feature_mode), `lstm_features` and `lstm_price_only` (with their own
    feature_mode, whatever the config's). Any other mode asks for itself,
    under the name "".
    """
    if config.model_mode != "all":
        return {"": config}
    legs = {
        f"arima_{config.forecast_mode}": replace(config, model_mode="arima"),
        "lstm_features": replace(config, model_mode="lstm", feature_mode="with_features"),
        "lstm_price_only": replace(config, model_mode="lstm", feature_mode="price_only"),
    }
    return {name: replace(leg, out_dir=str(Path(config.out_dir) / name)) for name, leg in legs.items()}


def run_pipeline(config: PipelineConfig, dump_stages=()) -> RunArtifacts | dict[str, RunArtifacts]:
    """Execute the configured experiment, then write all artifacts or none.

    `dump_stages` is a collection of DUMPABLE_STAGES names (or "all"); each
    requested intermediate lands under <out_dir>/stages/. Returns the run's
    RunArtifacts; with model mode "all", a dict of each leg's name to its
    RunArtifacts (see `_leg_configs`). The legs share one `prepare`, and each
    directory gets the files, byte for byte, of a run of its leg's config.
    """
    dump = set(dump_stages)
    if "all" in dump:
        dump = set(DUMPABLE_STAGES)
    unknown = dump - set(DUMPABLE_STAGES)
    if unknown:
        raise DataError(f"unknown dump stage {sorted(unknown)[0]!r}")

    prep = prepare(config)
    runs: dict[str, RunArtifacts] = {}
    files: dict[str, object] = {}
    new_dirs = []
    for name, leg_config in _leg_configs(config).items():
        # a leg of mode "all" is named in its errors; a one-leg run has no name
        with _stage(name, kind="leg") if name else nullcontext():
            runs[name], leg_files = _leg_files(leg_config, prep, dump, _fit_leg(leg_config, prep, dump))
        files.update(leg_files)
        new_dirs.append(Path(leg_config.out_dir) / "stages" if dump else Path(leg_config.out_dir))
    with _stage("output"):
        write_all(files.items(), new_dirs=new_dirs)
    return runs if config.model_mode == "all" else runs[""]


def _lstm_min_bytes(lcfg: LstmConfig, window: int, train_windows: int) -> int:
    """A lower bound of the memory an LSTM training run needs, in bytes.

    float64 parameters in 4 copies (the parameters, Adam's two moments and the
    gradients), plus every layer's cached gates for one batch of `window` steps.
    """
    params = sum(math.prod(shape) for _, shape in param_layout(lcfg))
    gates = lcfg.num_layers * window * 4 * lcfg.hidden_size * min(lcfg.batch_size, train_windows)
    return 8 * (4 * params + gates)


def _physical_memory() -> int:
    """The machine's physical memory in bytes, or 0 where os.sysconf cannot tell."""
    if not {"SC_PHYS_PAGES", "SC_PAGE_SIZE"} <= set(getattr(os, "sysconf_names", ())):
        return 0
    return max(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), 0)  # -1 pages: unknown


def _fit_leg(config: PipelineConfig, prep: Prepared, dump: set) -> dict:
    """Fit the model legs of a one-directory config on `prep`; the result is plain data.

    It maps "window_columns" to the columns each window reads, "windows" to the train,
    val and test windows ({} when nothing reads them), and "legs" to each model leg's
    (test predictions in price units, ArimaModel or LstmNetwork).
    """
    target = config.target_column
    _, b1, b2, n = prep.bounds
    # correlation_vector leaves the target out, so no feature repeats it
    window_columns = [target] + (prep.selected if config.feature_mode == "with_features" else [])
    windows: dict = {}
    # only the LSTM and the windows dump read windows; an ARIMA-only run must
    # not fail on a window setting it never reads
    if config.model_mode in ("lstm", "both") or "windows" in dump:
        with _stage("windows"):
            scaled = apply_scaler(prep.enriched, prep.scaler)
            built = make_windows(scaled, window_columns, target, config.window, config.horizon)
            # window i targets row i + offset, so each split is one slice
            offset = config.window + config.horizon - 1
            i1, i2 = max(b1 - offset, 0), max(b2 - offset, 0)
            splits = {"train": slice(0, i1), "val": slice(i1, i2), "test": slice(i2, None)}
            windows = {split: built.subset(rows) for split, rows in splits.items()}
            if len(windows["train"]) == 0:
                raise DataError(
                    f"no training windows: window {config.window} + horizon {config.horizon} "
                    f"reaches past the training split of {b1} rows"
                )
            if len(windows["test"]) != n - b2:
                raise DataError("test windows do not cover the test split")

    legs: dict[str, tuple] = {}
    if config.model_mode in ("arima", "both"):
        with _stage("arima"):
            prices = prep.enriched.column(target)
            model = arima_mod.auto_arima(prices[:b2], bounds=config.arima_bounds)
            mode = arima_mod.ForecastMode(config.forecast_mode)
            history = prices[:b2] if mode is arima_mod.ForecastMode.STATIC else prices
            legs["arima"] = (arima_mod.forecast(model, history, n - b2, mode), model)
    if config.model_mode in ("lstm", "both"):
        with _stage("lstm"):
            lcfg = config.lstm_config(input_size=len(window_columns))
            cannot = (
                f"cannot allocate the LSTM for lstm_hidden {config.lstm_hidden}, lstm_layers "
                f"{config.lstm_layers}, lstm_batch {config.lstm_batch} and window {config.window}: "
            )
            # numpy allocates past RAM without complaint, and the OS may kill the
            # process once the pages are touched, so a run that cannot fit is refused first
            need = _lstm_min_bytes(lcfg, config.window, len(windows["train"]))
            ram = _physical_memory()
            if 0 < ram < need:
                raise DataError(f"{cannot}it needs at least {need / 2**20:,.0f} MiB, and there is "
                                f"{ram / 2**20:,.0f} MiB of physical memory")
            try:
                network = init_network(lcfg)
                # one team (layer workers, or one layer group here) trains, validates and
                # makes the test predictions
                with layer_workers(network, windows["train"]) as team:
                    network, _ = train(network, windows["train"], windows["val"], lcfg, team=team)
                    preds = predict_series(network, windows["test"], team=team)
            except MemoryError as exc:  # numpy refused an allocation before touching it
                raise DataError(f"{cannot}{exc}") from exc
            legs["lstm"] = (invert_scaler(preds, target, prep.scaler), network)
    return {"window_columns": window_columns, "windows": windows, "legs": legs}


def _leg_files(config: PipelineConfig, prep: Prepared, dump: set, fit: dict) -> tuple[RunArtifacts, dict]:
    """The artifacts and files of a one-directory config, from its `_fit_leg` result.

    The files map each path to its text or write_fn(tmp), in the order it is written.
    """
    b2 = prep.bounds[2]
    prices = prep.enriched.column(config.target_column)
    legs, windows = fit["legs"], fit["windows"]
    out_dir = Path(config.out_dir)
    stage_dir = out_dir / "stages"
    features_json = json_text(
        {
            "correlations": prep.correlations_json(),
            "threshold": config.corr_threshold,
            "feature_mode": config.feature_mode,
            "selected": fit["window_columns"][1:],
            "window_columns": fit["window_columns"],
        }
    )
    # a dumped stage's file is named after the stage
    stage_files = {
        "filled.csv": lambda tmp: write_csv(prep.filled, tmp),
        "enriched.csv": lambda tmp: write_csv(prep.enriched, tmp),
        "scaler.json": json_text(prep.scaler.to_dict()),
        "features.json": features_json,
        "windows.npz": lambda tmp: np.savez(tmp, **{
            f"{split}_{kind}": getattr(ds, kind) for split, ds in windows.items() for kind in ("inputs", "targets")
        }),
    }
    artifacts = RunArtifacts(
        predictions={leg: str(out_dir / f"predictions_{leg}.csv") for leg in legs},
        metrics={leg: str(out_dir / f"metrics_{leg}.txt") for leg in legs},
        charts={leg: str(out_dir / f"chart_{leg}.svg") for leg in legs},
        checkpoint=str(out_dir / "lstm_checkpoint.npz") if "lstm" in legs else None,
        arima_model=str(out_dir / "arima_model.json") if "arima" in legs else None,
        selected_features=str(out_dir / "selected_features.json"),
        resolved_config=str(out_dir / "resolved_config.json"),
        stages={Path(name).stem: str(stage_dir / name) for name in stage_files if Path(name).stem in dump},
        reports={},
    )

    files = {path: stage_files[Path(path).name] for path in artifacts.stages.values()}
    for leg, (leg_preds, _) in legs.items():
        with _stage(leg):
            rows = prediction_rows(prep.enriched.dates, prices, leg_preds)
            files[artifacts.predictions[leg]] = format_predictions(*rows)
            artifacts.reports[leg] = metrics_mod.report(prep.enriched.dates[b2:], prices[b2:], leg_preds)
            files[artifacts.metrics[leg]] = metrics_mod.format_report(artifacts.reports[leg])
            files[artifacts.charts[leg]] = render_chart(*rows, title=f"{leg} forecast vs actual")
    if artifacts.arima_model:
        files[artifacts.arima_model] = json_text(arima_mod.model_to_dict(legs["arima"][1]))
    if artifacts.checkpoint:
        files[artifacts.checkpoint] = lambda tmp: save_checkpoint(legs["lstm"][1], tmp)
    files[artifacts.selected_features] = features_json
    files[artifacts.resolved_config] = json_text({**asdict(config), "_window_includes_target": True})
    return artifacts, files
