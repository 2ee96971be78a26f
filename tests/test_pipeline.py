import json
import pickle
import tracemalloc
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketcast import arima, lstm, pipeline, synth
from marketcast.chart import read_predictions
from marketcast.errors import DataError, DivergenceError, MarketcastError
from marketcast.lstm import LstmConfig
from marketcast.pipeline import (
    DUMPABLE_STAGES,
    PipelineConfig,
    RunArtifacts,
    load_config,
    run_pipeline,
    write_all,
)

TINY = dict(
    window=60,
    arima_bounds=(1, 1, 1),
    lstm_hidden=8,
    lstm_batch=16,
    lstm_epochs=2,
    lstm_patience=10,
    seed=0,
)


@pytest.fixture(scope="module")
def input_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    synth.write_csv(synth.generate(seed=5, n_days=400), path)
    return path


@pytest.fixture(scope="module")
def both_run(input_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_both")
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(out), **TINY)
    return cfg, run_pipeline(cfg)


# ---------------------------------------------------------------- config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(DataError, match="unknown config key"):
        PipelineConfig.from_dict({"input_path": "x.csv", "wat": 1})


def test_from_dict_requires_input_path():
    with pytest.raises(DataError, match="input_path"):
        PipelineConfig.from_dict({"window": 10})


def test_from_dict_ignores_annotation_keys():
    cfg = PipelineConfig.from_dict({"input_path": "x.csv", "_window_includes_target": True})
    assert cfg.input_path == "x.csv"


def test_pipeline_lstm_defaults_are_lstm_config_defaults():
    assert PipelineConfig(input_path="p").lstm_config(input_size=1) == LstmConfig(input_size=1)


def test_config_dict_round_trip():
    cfg = PipelineConfig(input_path="a.csv", splits=(0.7, 0.1, 0.2), arima_bounds=(2, 1, 2))
    # through JSON, so the triples come back as lists
    assert PipelineConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


@pytest.mark.parametrize(
    "bad",
    [
        dict(splits=(0.5, 0.5, 0.5)),
        dict(window=0),
        dict(corr_threshold=1.5),
        dict(feature_mode="psychic"),
        dict(model_mode="prophet"),
        dict(forecast_mode="sideways"),
        dict(arima_bounds=(1, -1, 1)),
        dict(lstm_hidden=0),
        dict(lstm_layers=0),
        dict(lstm_dropout=1.0),
        dict(lstm_lr=0),
        dict(lstm_batch=0),
        dict(lstm_epochs=0),
        dict(lstm_patience=-1),
        dict(lstm_lr=float("nan")),
        dict(lstm_lr=float("inf")),
    ],
)
def test_config_validation(bad):
    with pytest.raises(DataError):
        PipelineConfig(input_path="x.csv", **bad)


# what json.loads can return, integers beyond a float's range and NaN among them
HUGE_INTS = st.one_of(
    st.integers(min_value=10**300, max_value=10**400), st.integers(min_value=-(10**400), max_value=-(10**300))
)
NUMBERS = st.integers(min_value=0, max_value=300) | HUGE_INTS | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# values of each field's type, so that payloads also get past the type checks to the range checks
OF_TYPE = {
    int: st.integers(min_value=0, max_value=300) | HUGE_INTS,
    float: NUMBERS,
    str: st.sampled_from(("with_features", "price_only", "arima", "all", "static", "rolling", "PX_LAST")),
}
FIELD_VALUES = {  # a triple field's type is tuple[t, t, t]
    name: JSON_VALUES | (
        st.lists(OF_TYPE[get_args(kind)[0]], min_size=3, max_size=3) if get_args(kind) else OF_TYPE[kind]
    )
    for name, kind in get_type_hints(PipelineConfig).items()
}
CONFIG_PAYLOADS = st.fixed_dictionaries(
    {"input_path": FIELD_VALUES["input_path"]},
    optional={name: values for name, values in FIELD_VALUES.items() if name != "input_path"},
)


@settings(max_examples=300, derandomize=True)
@given(payload=CONFIG_PAYLOADS)
def test_from_dict_raises_only_marketcast_errors(payload):
    try:
        PipelineConfig.from_dict(payload)
    except MarketcastError:
        pass


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"input_path": "a.csv", "window": 30}))
    cfg = load_config(path, overrides={"window": 45, "seed": 9})
    assert cfg.input_path == "a.csv" and cfg.window == 45 and cfg.seed == 9
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(DataError):
        load_config(tmp_path / "bad.json")
    (tmp_path / "list.json").write_text("[1]")
    with pytest.raises(DataError):
        load_config(tmp_path / "list.json")


def test_patience_clamped_to_short_runs():
    cfg = PipelineConfig(input_path="x.csv", lstm_epochs=2, lstm_patience=10)
    assert cfg.lstm_config(input_size=3).patience == 2


# ---------------------------------------------------------------- running


def test_run_writes_all_artifacts(both_run):
    _, art = both_run
    assert set(art.predictions) == {"arima", "lstm"}
    assert set(art.metrics) == {"arima", "lstm"}
    assert set(art.charts) == {"arima", "lstm"}
    for path in (
        *art.predictions.values(),
        *art.metrics.values(),
        *art.charts.values(),
        art.checkpoint,
        art.arima_model,
        art.selected_features,
        art.resolved_config,
    ):
        assert path is not None and Path(path).is_file()
    assert art.stages == {}


@pytest.mark.parametrize("mode, dump", [("both", ("all",)), ("arima", ()), ("lstm", ()), ("all", ("all",))])
def test_artifacts_name_every_file_written(input_csv, tmp_path, mode, dump):
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path), model_mode=mode, **TINY)
    art = run_pipeline(cfg, dump_stages=dump)
    named = set()
    for leg_art in art.values() if mode == "all" else [art]:
        for name, value in asdict(leg_art).items():
            if name != "reports":
                named |= set(value.values()) if isinstance(value, dict) else {value} - {None}
    assert {str(p) for p in tmp_path.rglob("*") if p.is_file()} == named
    assert len(named) == {"both": 15, "arima": 6, "lstm": 6, "all": 33}[mode]


def test_predictions_have_context_rows(both_run):
    _, art = both_run
    dates, actual, predicted = read_predictions(art.predictions["lstm"])
    blank = ~np.isfinite(predicted)
    assert blank.sum() == 60  # context rows precede the forecast
    assert blank[:60].all() and np.isfinite(predicted[60:]).all()
    assert np.isfinite(actual).all()


def test_selected_features_payload(both_run):
    cfg, art = both_run
    payload = json.loads(Path(art.selected_features).read_text())
    assert payload["feature_mode"] == "with_features"
    assert payload["threshold"] == cfg.corr_threshold
    assert payload["window_columns"][0] == cfg.target_column
    corr = payload["correlations"]
    for name in payload["selected"]:
        assert abs(corr[name]) >= cfg.corr_threshold
    for name, value in corr.items():
        if name not in payload["selected"] and value is not None:
            assert abs(value) < cfg.corr_threshold


def test_resolved_config_reruns_byte_identical(both_run, tmp_path):
    cfg, art = both_run
    resolved = json.loads(Path(art.resolved_config).read_text())
    assert resolved["_window_includes_target"] is True
    rerun_cfg = load_config(art.resolved_config, overrides={"out_dir": str(tmp_path)})
    rerun = run_pipeline(rerun_cfg)
    for leg in ("arima", "lstm"):
        assert Path(rerun.predictions[leg]).read_bytes() == Path(art.predictions[leg]).read_bytes()
        assert Path(rerun.metrics[leg]).read_bytes() == Path(art.metrics[leg]).read_bytes()
        assert Path(rerun.charts[leg]).read_bytes() == Path(art.charts[leg]).read_bytes()


def test_price_only_matches_actuals_and_uses_one_column(both_run, input_csv, tmp_path):
    _, art = both_run
    cfg = PipelineConfig(
        input_path=str(input_csv),
        out_dir=str(tmp_path),
        feature_mode="price_only",
        model_mode="lstm",
        **TINY,
    )
    art2 = run_pipeline(cfg)
    payload = json.loads(Path(art2.selected_features).read_text())
    assert payload["selected"] == []
    assert payload["window_columns"] == [cfg.target_column]
    _, actual_a, _ = read_predictions(art.predictions["lstm"])
    _, actual_b, _ = read_predictions(art2.predictions["lstm"])
    np.testing.assert_array_equal(actual_a, actual_b)
    assert art2.arima_model is None and "arima" not in art2.predictions


def test_dump_stages(input_csv, tmp_path):
    cfg = PipelineConfig(
        input_path=str(input_csv), out_dir=str(tmp_path), model_mode="arima", **TINY
    )
    art = run_pipeline(cfg, dump_stages=("all",))
    assert set(art.stages) == set(DUMPABLE_STAGES)
    for path in art.stages.values():
        assert Path(path).is_file()
    # every staging file was renamed into place, in out_dir and in stages/
    assert list(tmp_path.rglob(".*")) == []
    scaler = json.loads(Path(art.stages["scaler"]).read_text())
    lo, hi = scaler[cfg.target_column]
    assert lo < hi
    with pytest.raises(DataError, match="unknown dump stage"):
        run_pipeline(cfg, dump_stages=("filled", "nonsense"))


def test_failed_run_rolls_back_partial_files(input_csv, tmp_path):
    # window is longer than the training split, so the windows stage fails;
    # no dump and no directory is made before every stage has run
    cfg = PipelineConfig(
        input_path=str(input_csv),
        out_dir=str(tmp_path / "leftover" / "run"),
        window=216,
        arima_bounds=(1, 1, 1),
    )
    with pytest.raises(DataError, match="^stage windows:"):
        run_pipeline(cfg, dump_stages=("all",))
    assert list(tmp_path.rglob("*")) == []


def test_failed_run_keeps_directories_it_did_not_make(input_csv, tmp_path):
    # the empty output directory was there before the run, so it stays
    (tmp_path / "out").mkdir()
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path / "out"), window=216)
    with pytest.raises(DataError, match="^stage windows:"):
        run_pipeline(cfg, dump_stages=("all",))
    assert list(tmp_path.rglob("*")) == [tmp_path / "out"]


def test_window_past_the_training_split_fails_before_any_arima_fit(input_csv, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        pytest.fail("auto_arima ran before the windows stage failed")

    monkeypatch.setattr(arima, "auto_arima", no_fit)
    # of the input's 201 rows, 120 train: a 150-row window fits the frame but no training split
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path), **{**TINY, "window": 150})
    assert cfg.model_mode == "both"
    with pytest.raises(DataError, match="^stage windows: no training windows"):
        run_pipeline(cfg)


def test_out_dir_under_a_file_is_a_data_error(input_csv, tmp_path):
    (tmp_path / "afile").write_text("")
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path / "afile" / "run"), **TINY)
    with pytest.raises(DataError, match="^stage output: cannot create"):
        run_pipeline(cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("lcfg", [LstmConfig(input_size=1), LstmConfig(input_size=7, hidden_size=5, num_layers=3),
                                  LstmConfig(input_size=2, hidden_size=1, num_layers=1, batch_size=4)])
def test_lstm_min_bytes_counts_the_network_s_one_vector(lcfg):
    """The memory check counts the parameters from `lstm.param_layout`, as
    many as the network's vector holds, and its bound is what the fused
    shapes give (4 copies of the parameters, and one batch's gates)."""
    h, n = lcfg.hidden_size, lstm.init_network(lcfg).flat.size
    assert n == sum(4 * h * (d + h + 1) for d in [lcfg.input_size] + [h] * (lcfg.num_layers - 1)) + h + 1
    gates = lcfg.num_layers * 216 * 4 * h * min(lcfg.batch_size, 100)
    assert pipeline._lstm_min_bytes(lcfg, 216, 100) == 8 * (4 * n + gates)


def test_layer_workers_write_what_in_process_writes_across_a_restore(input_csv, tmp_path, monkeypatch, worker_procs):
    """A run that stops on patience after its best epoch writes the same
    predictions, metrics and checkpoint on one CPU (in-process) as on two
    (layer workers): the test predictions and the checkpoint both read the
    restored best weights, on two CPUs from the shared parameters after
    the workers have exited."""
    histories = []
    train = pipeline.train

    def recording(*args, **kwargs):
        network, history = train(*args, **kwargs)
        histories.append(history)
        return network, history

    monkeypatch.setattr(pipeline, "train", recording)
    written, checkpoints = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(lstm, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(out), model_mode="lstm",
                             feature_mode="price_only", window=30, lstm_hidden=8, lstm_batch=16, lstm_lr=0.01,
                             lstm_epochs=8, lstm_patience=1, seed=0)
        run_pipeline(cfg)
        written.append({name: (out / name).read_bytes() for name in ("predictions_lstm.csv", "metrics_lstm.txt")})
        # compared by arrays: the npz bytes hold timestamps
        checkpoints.append(lstm.load_checkpoint(out / "lstm_checkpoint.npz"))
    assert histories[0] == histories[1]
    assert histories[0].best_epoch < len(histories[0].train_losses) - 1
    assert written[0] == written[1]
    assert checkpoints[0].config == checkpoints[1].config
    for a, b in zip(checkpoints[0].parameters(), checkpoints[1].parameters(), strict=True):
        assert np.array_equal(a, b)
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


def test_failed_lstm_leg_leaves_nothing_after_arima_ran(input_csv, tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("non-finite loss", epoch=0)

    monkeypatch.setattr(pipeline, "train", diverge)
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path / "a" / "b"), **TINY)
    with pytest.raises(DivergenceError, match="^stage lstm:"):
        run_pipeline(cfg, dump_stages=("all",))
    assert list(tmp_path.rglob("*")) == []


def test_failed_output_write_removes_the_files_it_wrote(input_csv, tmp_path):
    # a directory where resolved_config.json, the last file, goes fails the write
    out = tmp_path / "out"
    (out / "resolved_config.json").mkdir(parents=True)
    (out / "keep.txt").write_text("mine")
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(out), model_mode="arima", **TINY)
    with pytest.raises(DataError, match="^stage output: cannot write"):
        run_pipeline(cfg, dump_stages=("all",))
    assert sorted(p.name for p in out.rglob("*")) == ["keep.txt", "resolved_config.json"]
    assert (out / "keep.txt").read_text() == "mine"


def test_write_all_removes_files_and_new_directories_on_interrupt(tmp_path):
    new_dir = tmp_path / "x" / "y"

    def interrupted(tmp):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_all([(new_dir / "first.txt", "one\n"), (new_dir / "second.npz", interrupted)], new_dirs=[new_dir])
    assert list(tmp_path.iterdir()) == []


def test_write_all_writes_targets_whose_names_fill_the_name_limit(tmp_path):
    # the staging names would be 14 bytes longer than these 251-byte names
    text_path = tmp_path / ("t" * 247 + ".txt")
    npz_path = tmp_path / ("n" * 247 + ".npz")
    long_suffix_path = tmp_path / ("s." + "x" * 249)
    write_all([
        (text_path, "kept\n"),
        (npz_path, lambda tmp: np.savez(tmp, a=np.arange(3))),
        (long_suffix_path, "suffix\n"),
    ])
    assert text_path.read_text() == "kept\n"
    assert long_suffix_path.read_text() == "suffix\n"
    with np.load(npz_path) as data:
        assert np.array_equal(data["a"], np.arange(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([npz_path.name, text_path.name, long_suffix_path.name])


def test_write_all_leaves_an_existing_target_when_a_later_write_fails(tmp_path):
    (tmp_path / "first.txt").write_text("old")

    def failing(tmp):
        raise OSError("disk full")

    with pytest.raises(DataError, match="cannot write .*second.npz: disk full"):
        write_all([(tmp_path / "first.txt", "new"), (tmp_path / "second.npz", failing)])
    # the target keeps its bytes, and no staging file is left beside it
    assert (tmp_path / "first.txt").read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["first.txt"]


def test_failed_rerun_keeps_the_earlier_run_whole(input_csv, tmp_path):
    out = tmp_path / "out"
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(out), model_mode="arima", **TINY)
    run_pipeline(cfg)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "metrics_arima.txt").unlink()
    (out / "metrics_arima.txt").mkdir()
    with pytest.raises(DataError, match="^stage output: cannot write .*metrics_arima.txt: Is a directory"):
        run_pipeline(cfg)
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    del first["metrics_arima.txt"]
    assert after == first


def test_windows_are_not_copied(tmp_path, monkeypatch):
    """The run's peak stays below one copy of its own window tensor."""
    bundled = Path(__file__).resolve().parent.parent / "data" / "synthetic_prices.csv"
    built = []
    make_windows = pipeline.make_windows

    def recording_make_windows(*args, **kwargs):
        built.append(make_windows(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "make_windows", recording_make_windows)
    cfg = PipelineConfig(
        input_path=str(bundled), out_dir=str(tmp_path), model_mode="lstm", feature_mode="with_features",
        window=32, lstm_hidden=4, lstm_epochs=1, seed=0,
    )
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (windows,) = built
    assert windows.inputs.shape[2] > 1  # the features were selected
    assert peak < windows.inputs.nbytes


def test_arima_only_run_builds_no_windows(tmp_path):
    """An ARIMA-only run does not fail on a window longer than its training split."""
    path = tmp_path / "in.csv"
    synth.write_csv(synth.generate(3, 500), path)
    outputs = []
    for window in (PipelineConfig.window, 50):
        out = tmp_path / f"window{window}"
        cfg = PipelineConfig(
            input_path=str(path), out_dir=str(out), model_mode="arima", arima_bounds=(1, 1, 1), window=window
        )
        run_pipeline(cfg)
        outputs.append((out / "predictions_arima.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_target_column_fails_with_stage_prefix(tmp_path):
    path = tmp_path / "in.csv"
    synth.write_csv(synth.generate(seed=1, n_days=250), path)
    cfg = PipelineConfig(
        input_path=str(path), out_dir=str(tmp_path / "out"), target_column="NOPE", **TINY
    )
    with pytest.raises(DataError, match="^stage fill:.*NOPE"):
        run_pipeline(cfg)


def _callables(value) -> list:
    """Every callable in `value`, through dicts, lists, tuples and dataclass fields."""
    if callable(value):
        return [value]
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple)):
        items = list(value)
    elif is_dataclass(value):
        items = [getattr(value, f.name) for f in fields(value)]
    else:
        return []
    return [found for item in items for found in _callables(item)]


def _written(content, path: Path):
    """What a files-map content puts at `path`: its text, or what its write_fn writes.

    An .npz file is compared by its arrays, since np.savez stamps the time into the zip.
    """
    if not callable(content):
        return content
    content(path)
    if path.suffix != ".npz":
        return path.read_bytes()
    with np.load(path) as data:
        return {key: (data[key].dtype.str, data[key].shape, data[key].tobytes()) for key in data}


@pytest.mark.parametrize(
    "mode, leg",
    [
        ("arima", ""),
        ("lstm", ""),
        ("both", ""),
        ("all", "arima_static"),
        ("all", "lstm_features"),
        ("all", "lstm_price_only"),
    ],
)
def test_fit_result_is_plain_data_that_pickles(input_csv, tmp_path, mode, leg):
    """A leg's fit result can leave its process: no callable, and a pickled copy makes the same files."""
    cfg = PipelineConfig(input_path=str(input_csv), out_dir=str(tmp_path / "out"), model_mode=mode, **TINY)
    leg_config = pipeline._leg_configs(cfg)[leg]
    prep = pipeline.prepare(cfg)
    dump = set(DUMPABLE_STAGES)
    fit = pipeline._fit_leg(leg_config, prep, dump)
    assert set(fit["legs"]) == ({"arima", "lstm"} if mode == "both" else {leg_config.model_mode})
    assert set(fit["windows"]) == {"train", "val", "test"}
    assert _callables(fit) == []
    copy = pickle.loads(pickle.dumps(fit))
    # a network pickles as its config and one vector, and its arrays are views into its own
    networks = [model for _, model in copy["legs"].values() if isinstance(model, lstm.LstmNetwork)]
    assert len(networks) == ("lstm" in copy["legs"])
    for network in networks:
        assert set(vars(network)) == {"config", "flat"}
        assert all(np.shares_memory(p, network.flat) for p in network.parameters())

    artifacts, files = pipeline._leg_files(leg_config, prep, dump, fit)
    copy_artifacts, copy_files = pipeline._leg_files(leg_config, prep, dump, copy)
    assert copy_artifacts == artifacts
    assert list(copy_files) == list(files)
    for n, (path, content) in enumerate(files.items()):
        name = f"{n}_{Path(path).name}"
        assert _written(copy_files[path], tmp_path / f"copy_{name}") == _written(content, tmp_path / name), path
