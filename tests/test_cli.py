import io
import json
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketcast import _lstm_workers, cli, lstm, pipeline, synth
from marketcast.chart import read_predictions
from marketcast.errors import DataError, DivergenceError

BUNDLED_CSV = Path(__file__).resolve().parent.parent / "data" / "synthetic_prices.csv"

TINY_RUN = [
    "--window", "60",
    "--bounds", "1,1,1",
    "--hidden", "8",
    "--batch", "16",
    "--epochs", "2",
    "--seed", "0",
]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "marketcast.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_data") / "prices.csv"
    proc = run_cli("synth", "--out", path, "--days", "400", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {path}" in proc.stdout
    return path


@pytest.fixture(scope="module")
def run_dir(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    proc = run_cli("run", "--input", synth_csv, "--out-dir", out, *TINY_RUN)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


# ---------------------------------------------------------------- happy path


def test_synth_rejects_short_series(tmp_path):
    proc = run_cli("synth", "--out", tmp_path / "x.csv", "--days", "50")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_synth_minimum_is_what_features_needs(tmp_path, capsys):
    # 199 MOV_AVG_200D warm-up rows plus 6 rows, the least a 60/20/20 split
    # with 2 test rows takes
    short = tmp_path / "short.csv"
    assert cli.main(["synth", "--out", str(short), "--days", "204"]) == 2
    assert "--days must be at least 205" in capsys.readouterr().err
    assert not short.exists()
    synth.write_csv(synth.generate(0, 204), short)
    assert cli.main(["features", "--input", str(short)]) == 2
    enough = tmp_path / "enough.csv"
    assert cli.main(["synth", "--out", str(enough), "--days", "205"]) == 0
    assert cli.main(["features", "--input", str(enough)]) == 0


def test_synth_rejects_days_past_the_calendar(tmp_path):
    # the largest count whose last trading day, 9999-12-30, is before date.max
    assert synth.MAX_DAYS == 2_083_513
    out = tmp_path / "x.csv"
    proc = run_cli("synth", "--out", out, "--days", synth.MAX_DAYS + 1)
    assert proc.returncode == 2
    assert "--days must be at most 2083513" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--drift-before", "1e300"], ["--vol-before", "1e6"]])
def test_synth_regime_past_the_float_range_exits_2(tmp_path, flag):
    out = tmp_path / "x.csv"
    proc = run_cli("synth", "--out", out, "--days", "300", *flag)
    assert proc.returncode == 2
    assert proc.stderr == "error: the regimes take PX_OPEN beyond the float range\n"
    assert not out.exists()


def test_run_writes_and_reports_artifacts(run_dir):
    out, stdout = run_dir
    for name in (
        "predictions_arima.csv",
        "predictions_lstm.csv",
        "metrics_arima.txt",
        "metrics_lstm.txt",
        "chart_arima.svg",
        "chart_lstm.svg",
        "arima_model.json",
        "lstm_checkpoint.npz",
        "selected_features.json",
        "resolved_config.json",
    ):
        assert (out / name).is_file(), name
        assert f"wrote {out / name}" in stdout
    _, _, predicted = read_predictions(out / "predictions_lstm.csv")
    assert (~np.isfinite(predicted)).sum() == 60


def test_run_dump_stage_flags(synth_csv, tmp_path):
    proc = run_cli(
        "run", "--input", synth_csv, "--out-dir", tmp_path, "--mode", "arima",
        "--dump-stage", "filled", "--dump-stage", "scaler", *TINY_RUN,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stages" / "filled.csv").is_file()
    assert (tmp_path / "stages" / "scaler.json").is_file()
    assert "dumped filled ->" in proc.stdout
    assert "dumped scaler ->" in proc.stdout


def test_train_lstm_runs_only_lstm_leg(synth_csv, tmp_path):
    lstm_flags = [f for f in TINY_RUN if f not in ("--bounds", "1,1,1")]
    proc = run_cli("train-lstm", "--input", synth_csv, "--out-dir", tmp_path, *lstm_flags)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "predictions_lstm.csv").is_file()
    assert not (tmp_path / "predictions_arima.csv").exists()
    assert not (tmp_path / "arima_model.json").exists()


ALL_LEGS = ["arima_static", "lstm_features", "lstm_price_only"]


def test_run_mode_all_is_three_one_leg_runs(synth_csv, tmp_path, capsys):
    out = tmp_path / "exp"
    argv = ["run", "--mode", "all", "--features", "without", "--input", str(synth_csv), "--out-dir", str(out)]
    assert cli.main([*argv, *TINY_RUN]) == 0
    written, table = capsys.readouterr().out.split("\n\n")
    assert written.count("wrote ") == 18
    assert [row.split()[0] for row in table.splitlines()[2:]] == ALL_LEGS
    assert sorted(p.name for p in out.iterdir()) == ALL_LEGS
    assert list(out.rglob(".*")) == []
    # the ARIMA leg keeps --features; the LSTM legs each have their own
    modes = [json.loads((out / leg / "selected_features.json").read_text())["feature_mode"] for leg in ALL_LEGS]
    assert modes == ["price_only", "with_features", "price_only"]
    # a one-leg run of each leg's resolved config writes that leg's directory again, byte for byte
    for leg in ALL_LEGS:
        files = {p.name: p.read_bytes() for p in (out / leg).iterdir()}
        for name in files:
            (out / leg / name).unlink()
        config = tmp_path / f"{leg}.json"
        config.write_bytes(files["resolved_config.json"])
        assert cli.main(["run", "--config", str(config)]) == 0
        rerun = {p.name: p.read_bytes() for p in (out / leg).iterdir()}
        assert rerun.keys() == files.keys()
        for name in files:
            if name.endswith(".npz"):
                with np.load(out / leg / name) as new, np.load(io.BytesIO(files[name])) as old:
                    assert all(np.array_equal(new[key], old[key]) for key in old.files)
            else:
                assert rerun[name] == files[name], (leg, name)


def test_failed_last_leg_of_mode_all_writes_nothing(synth_csv, tmp_path, monkeypatch, capsys):
    train = pipeline.train
    calls = []

    def fail_second_training(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # lstm_price_only, the last leg
            raise DivergenceError("non-finite loss", epoch=0)
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", fail_second_training)
    argv = ["run", "--mode", "all", "--input", str(synth_csv), "--out-dir", str(tmp_path / "exp")]
    assert cli.main([*argv, *TINY_RUN]) == 3
    assert "error: leg lstm_price_only: stage lstm: non-finite loss" in capsys.readouterr().err
    assert len(calls) == 2 and list(tmp_path.iterdir()) == []


def test_features_prints_json(synth_csv):
    proc = run_cli("features", "--input", synth_csv)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "correlations" in payload and "selected" in payload
    assert payload["threshold"] == 0.5


def test_synth_defaults_reproduce_bundled_data(tmp_path):
    out = tmp_path / "prices.csv"
    assert cli.main(["synth", "--out", str(out)]) == 0
    assert out.read_bytes() == BUNDLED_CSV.read_bytes()


def test_features_agrees_with_run(synth_csv, run_dir, capsys):
    out, _ = run_dir
    assert cli.main(["features", "--input", str(synth_csv)]) == 0
    scan = json.loads(capsys.readouterr().out)
    chosen = json.loads((out / "selected_features.json").read_text())
    assert scan["selected"], "the check needs at least one selected feature"
    assert scan["correlations"] == chosen["correlations"]
    assert scan["selected"] == chosen["selected"]


def test_features_checks_splits_like_run(synth_csv, capsys):
    # no training rows: run has always failed here, features now does too
    assert cli.main(["features", "--input", str(synth_csv), "--splits", "0.0,0.5,0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: stage scale: ")


@pytest.mark.parametrize(
    "flag",
    [
        ("--out-dir", "X"), ("--window", "30"), ("--horizon", "2"), ("--features", "without"),
        ("--seed", "1"), ("--epochs", "3"), ("--patience", "2"), ("--hidden", "8"),
        ("--dropout", "0.1"), ("--batch", "8"), ("--lr", "0.01"), ("--mode", "lstm"),
        ("--forecast", "rolling"), ("--bounds", "1,1,1"), ("--dump-stage", "all"),
    ],
)
def test_features_rejects_flags_that_do_not_change_its_report(synth_csv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["features", "--input", str(synth_csv), *flag])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["synth", "features", "fit-arima", "fit-garch", "forecast", "evaluate", "chart"])
def test_out_in_missing_directory_exits_2(command, synth_csv, run_dir, tmp_path, capsys):
    out, _ = run_dir
    target = tmp_path / "missing" / "out.txt"
    argv = {
        "synth": ["--out", target],
        "features": ["--input", synth_csv, "--out", target],
        "fit-arima": ["--input", synth_csv, "--order", "1,1,0", "--out", target],
        "fit-garch": ["--input", synth_csv, "--out-params", tmp_path / "g.json", "--out-csv", target],
        "forecast": ["--model", out / "arima_model.json", "--input", synth_csv, "--steps", "20", "--out", target],
        "evaluate": ["--input", out / "predictions_arima.csv", "--out", target],
        "chart": ["--input", out / "predictions_arima.csv", "--out", target],
    }[command]
    assert cli.main([command, *map(str, argv)]) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert not target.parent.exists()
    assert not (tmp_path / "g.json").exists()  # fit-garch writes both outputs or neither


def test_evaluate_stdout_and_file(run_dir, tmp_path):
    out, _ = run_dir
    proc = run_cli("evaluate", "--input", out / "predictions_arima.csv")
    assert proc.returncode == 0, proc.stderr
    assert "mae = " in proc.stdout and "accuracy_pct = " in proc.stdout
    report = tmp_path / "report.txt"
    proc = run_cli("evaluate", "--input", out / "predictions_arima.csv", "--out", report)
    assert proc.returncode == 0
    assert "mae = " in report.read_text()


def test_chart_from_predictions(run_dir, tmp_path):
    out, _ = run_dir
    svg = tmp_path / "c.svg"
    proc = run_cli("chart", "--input", out / "predictions_lstm.csv", "--out", svg, "--title", "My Tiny Run")
    assert proc.returncode == 0, proc.stderr
    text = svg.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert "My Tiny Run" in text


@pytest.mark.parametrize("title", ["a\x01b", "\udcff"], ids=["control-character", "non-utf8-argv-byte"])
def test_chart_title_outside_xml_exits_2(run_dir, tmp_path, capsys, title):
    out, _ = run_dir
    argv = ["chart", "--input", str(out / "predictions_lstm.csv"), "--out", str(tmp_path / "c.svg"), "--title", title]
    assert cli.main(argv) == 2
    assert "error: chart title holds " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_chart_of_values_a_float_cannot_scale_exits_2(tmp_path):
    predictions = tmp_path / "p.csv"
    predictions.write_text("date,actual,predicted\n2021-01-01,1e308,\n2021-01-04,-1e308,1.0\n")
    svg = tmp_path / "c.svg"
    proc = run_cli("chart", "--input", predictions, "--out", svg)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot chart values from -1e+308 to 1e+308: a float cannot scale that range\n"
    assert not svg.exists()


def test_fit_arima_then_forecast(synth_csv, tmp_path):
    model = tmp_path / "model.json"
    proc = run_cli(
        "fit-arima", "--input", synth_csv, "--order", "1,1,0",
        "--train-frac", "0.8", "--out", model,
    )
    assert proc.returncode == 0, proc.stderr
    assert "order (1,1,0)" in proc.stdout
    payload = json.loads(model.read_text())
    assert payload["order"] == [1, 1, 0]

    preds = tmp_path / "preds.csv"
    proc = run_cli(
        "forecast", "--model", model, "--input", synth_csv,
        "--steps", "20", "--mode", "static", "--out", preds,
    )
    assert proc.returncode == 0, proc.stderr
    dates, actual, predicted = read_predictions(preds)
    assert len(dates) == 80  # 60 context rows + 20 forecast rows
    assert np.isfinite(predicted[60:]).all() and not np.isfinite(predicted[:60]).any()

    proc = run_cli("forecast", "--model", model, "--input", synth_csv, "--steps", "99999")
    assert proc.returncode == 2


ARMA11_MODEL = {"order": [1, 0, 1], "phi": [0.5], "theta": [0.2], "intercept": 0.1,
                "sigma2": 1.0, "n_obs": 100, "aic": 10.0}


@pytest.mark.parametrize(
    "payload",
    [
        [1],
        {"order": 5},
        {"order": [1, 1, 0], "phi": [0.5], "theta": [], "intercept": None,
         "sigma2": 1.0, "n_obs": 100, "aic": 10.0},
        # a string or a bool is not a number, though Python reads each as one
        {**ARMA11_MODEL, "order": "111"},
        {**ARMA11_MODEL, "order": [True, 1, True]},
        {**ARMA11_MODEL, "n_obs": "7"},
        {**ARMA11_MODEL, "intercept": "1.5"},
        {**ARMA11_MODEL, "sigma2": "1"},
        {**ARMA11_MODEL, "phi": ["0.5"]},
        {**ARMA11_MODEL, "theta": [True]},
        {**ARMA11_MODEL, "aic": True},
        {**ARMA11_MODEL, "intercept": 10**400},
    ],
    ids=[
        "list", "scalar-order", "null-intercept", "string-order", "bool-order-terms", "string-n_obs",
        "string-intercept", "string-sigma2", "string-phi", "bool-theta", "bool-aic", "int-past-float-range",
    ],
)
def test_forecast_malformed_model_exits_2(synth_csv, tmp_path, capsys, payload):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "preds.csv"
    code = cli.main(["forecast", "--model", str(model), "--input", str(synth_csv), "--steps", "5", "--out", str(out)])
    assert code == 2
    assert "error: malformed model file: " in capsys.readouterr().err
    assert not out.exists()


NOT_FINITE = "malformed model file: phi, theta, intercept, sigma2 and aic must be finite"


@pytest.mark.parametrize(
    "fields, mode, message",
    [
        ({"phi": [float("nan")]}, "static", NOT_FINITE),
        ({"intercept": float("nan"), "sigma2": float("nan")}, "rolling", NOT_FINITE),
        ({"theta": [1e308]}, "rolling", "forecast is not finite"),
        ({"order": [1.5, 0, 1]}, "static", "malformed model file: order term must be a whole number, got 1.5"),
    ],
    ids=["nan-phi", "nan-intercept-sigma2", "overflowing-theta", "fractional-order"],
)
def test_forecast_non_finite_model_exits_2(synth_csv, tmp_path, capsys, fields, mode, message):
    model = tmp_path / "model.json"
    # json writes NaN as the bare token NaN, which json.load reads back
    model.write_text(json.dumps({**ARMA11_MODEL, **fields}))
    out = tmp_path / "preds.csv"
    code = cli.main(["forecast", "--model", str(model), "--input", str(synth_csv), "--steps", "5",
                     "--mode", mode, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_fit_garch_outputs(synth_csv, tmp_path):
    params_path = tmp_path / "params.json"
    csv_path = tmp_path / "var.csv"
    proc = run_cli(
        "fit-garch", "--input", synth_csv,
        "--out-params", params_path, "--out-csv", csv_path,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(params_path.read_text())
    for key in ("alpha0", "alpha1", "beta1", "persistence", "long_run_variance", "log_likelihood", "n_obs"):
        assert key in payload
    assert 0 < payload["persistence"] < 1
    assert payload["n_obs"] == 399  # one row lost to the log-return diff
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "date,residual,sigma2"
    assert len(lines) == 400


@pytest.mark.parametrize("csv_out", ["X", "{cwd}/X"], ids=["same-spelling", "absolute-spelling"])
def test_fit_garch_outputs_naming_one_file_exit_2(synth_csv, tmp_path, monkeypatch, capsys, csv_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "X").write_bytes(b"earlier\n")
    argv = ["fit-garch", "--input", str(synth_csv), "--out-params", "X", "--out-csv", csv_out.format(cwd=tmp_path)]
    assert cli.main(argv) == 2
    assert "they name one file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["X"]
    assert (tmp_path / "X").read_bytes() == b"earlier\n"


def test_outputs_get_the_mode_the_umask_gives(synth_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MARKETCAST_OUT", raising=False)
    saved = os.umask(0o022)
    try:
        for argv in (
            ["synth", "--days", "400", "--seed", "5"],
            ["features", "--input", str(synth_csv), "--out", "features.json"],
            ["run", "--input", str(synth_csv), "--out-dir", "run", "--dump-stage", "all", *TINY_RUN],
            ["fit-arima", "--input", str(synth_csv), "--order", "1,1,0"],
            ["forecast", "--model", "arima_model.json", "--input", str(synth_csv), "--steps", "20"],
            ["fit-garch", "--input", str(synth_csv)],
            ["evaluate", "--input", "predictions_arima.csv", "--out", "report.txt"],
            ["chart", "--input", "predictions_arima.csv"],
        ):
            assert cli.main(argv) == 0, capsys.readouterr().err
    finally:
        os.umask(saved)
    modes = {str(p.relative_to(tmp_path)): stat.S_IMODE(p.stat().st_mode) for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 23
    assert {name: oct(mode) for name, mode in modes.items() if mode != 0o644} == {}


def test_out_dir_env_var(run_dir, tmp_path):
    out, _ = run_dir
    proc = run_cli(
        "chart", "--input", out / "predictions_lstm.csv",
        env_extra={"MARKETCAST_OUT": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "chart.svg").is_file()


def test_out_dir_precedence(tmp_path, monkeypatch):
    # --out-dir, then the config file's out_dir, then $MARKETCAST_OUT, then .
    seen = []

    def capture(config, dump_stages=()):
        seen.append(config.out_dir)
        raise DataError("captured")

    monkeypatch.setattr(cli, "run_pipeline", capture)
    with_dir = tmp_path / "with_dir.json"
    with_dir.write_text(json.dumps({"input_path": "x.csv", "out_dir": "from_file"}))
    without = tmp_path / "without.json"
    without.write_text(json.dumps({"input_path": "x.csv"}))
    monkeypatch.setenv("MARKETCAST_OUT", "from_env")
    for argv in (["--config", with_dir, "--out-dir", "from_flag"], ["--config", with_dir], ["--config", without]):
        assert cli.main(["run", *map(str, argv)]) == 2
    monkeypatch.delenv("MARKETCAST_OUT")
    assert cli.main(["run", "--config", str(without)]) == 2
    assert seen == ["from_flag", "from_file", "from_env", "."]


# ---------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "args",
    [
        ("definitely-not-a-command",),
        ("fit-arima",),  # missing --input
        ("run", "--input", "x.csv", "--mode", "oracle"),  # bad choice
        (),
    ],
)
def test_usage_errors_exit_1(args):
    proc = run_cli(*args)
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "flag",
    [
        ("--break-frac", "0"), ("--vol-after", "-1"), ("--start-price", "0"),
        ("--vol-before", "nan"), ("--drift-before", "nan"), ("--start-price", "nan"),
        ("--vol-after", "inf"), ("--drift-after", "inf"), ("--break-frac", "nan"),
        ("--seed", "-1"),
    ],
)
def test_synth_bad_regime_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    assert cli.main(["synth", "--out", str(out), *flag]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_2(tmp_path):
    proc = run_cli("run", "--input", tmp_path / "missing.csv", "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr

    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,predictions\nfile,at,all\n")
    proc = run_cli("evaluate", "--input", bad)
    assert proc.returncode == 2


def test_failed_ingest_leaves_no_directories(tmp_path, capsys):
    out = tmp_path / "newdir"
    args = ["run", "--input", str(tmp_path / "nothere.csv"), "--out-dir", str(out), "--dump-stage", "all"]
    assert cli.main(args) == 2
    assert "stage ingest" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [
        {"arima_bounds": 5},
        {"arima_bounds": [5.7, 1, 0]},
        {"arima_bounds": [True, 1, 0]},
        {"window": "30"},
        {"lstm_epochs": 1.5},
        {"seed": False},
        {"splits": "0.6,0.2,0.2"},
        {"lstm_dropout": None},
        {"out_dir": 7},
        {"lstm_hidden": 0},
        {"lstm_layers": 0},
        {"lstm_dropout": 1.0},
        {"lstm_lr": 0},
        {"lstm_batch": 0},
        {"lstm_epochs": 0},
        {"lstm_patience": -1},
        {"seed": -1},
        {"lstm_lr": 10**400},
        {"splits": [10**400, 0, 0]},
    ],
)
def test_config_value_types_exit_2(tmp_path, monkeypatch, capsys, bad):
    def no_preprocessing(*args, **kwargs):
        raise AssertionError("preprocessing started with a bad config")

    monkeypatch.setattr(pipeline, "load_csv", no_preprocessing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(tmp_path / "x.csv"), "model_mode": "lstm", **bad}))
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag",
    [
        ("--hidden", "0"), ("--dropout", "1.0"), ("--lr", "0"), ("--batch", "0"), ("--epochs", "0"),
        ("--patience", "-1"), ("--splits", "0.6,nan,0.2"), ("--splits", "0.6,0.2,inf"),
        ("--seed", "-1"), ("--lr", "nan"), ("--lr", "inf"),
    ],
)
def test_out_of_range_flags_exit_2_before_ingest(tmp_path, monkeypatch, capsys, flag):
    def no_preprocessing(*args, **kwargs):
        raise AssertionError("preprocessing started with an out-of-range setting")

    monkeypatch.setattr(pipeline, "load_csv", no_preprocessing)
    out = tmp_path / "out"
    assert cli.main(["run", "--input", str(tmp_path / "x.csv"), "--out-dir", str(out), *flag]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_lstm_numpy_cannot_allocate_exits_2(synth_csv, tmp_path):
    # the recurrent weights alone would be 3.2e17 bytes, past any address space and
    # any machine's memory, so the run is refused before numpy allocates a page
    out = tmp_path / "out"
    proc = run_cli("run", "--mode", "lstm", "--hidden", "100000000", "--epochs", "1", "--window", "5",
                   "--input", synth_csv, "--out-dir", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: stage lstm: cannot allocate the LSTM for lstm_hidden 100000000, lstm_layers 2, lstm_batch 32 "
        "and window 5: "
    )
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


# a run at the default LSTM sizes and window 20, and the error it exits 2 with when it cannot allocate
SMALL_LSTM_RUN = ["run", "--mode", "lstm", "--window", "20", "--epochs", "1"]
LSTM_ALLOC_PREFIX = (
    "error: stage lstm: cannot allocate the LSTM for lstm_hidden 64, lstm_layers 2, lstm_batch 32 and window 20: "
)


def test_lstm_numpy_memory_error_exits_2(synth_csv, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(pipeline, "init_network", refuse)
    out = tmp_path / "out"
    assert cli.main([*SMALL_LSTM_RUN, "--input", str(synth_csv), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == LSTM_ALLOC_PREFIX + "Unable to allocate\n"
    assert not out.exists()


def test_lstm_worker_memory_error_exits_2(synth_csv, tmp_path, monkeypatch, capsys, worker_procs):
    """numpy refusing an allocation in a training worker is the same exit 2
    as in-process: the worker sends its MemoryError back to train."""
    refusing_numpy = (
        "import numpy\n"
        "def refuse(*args, **kwargs):\n"
        "    raise MemoryError('Unable to allocate')\n"
        "numpy.empty = refuse\n"
    )
    monkeypatch.setattr(lstm, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_lstm_workers, "_WORKER_CODE", refusing_numpy + _lstm_workers._WORKER_CODE)
    out = tmp_path / "out"
    assert cli.main([*SMALL_LSTM_RUN, "--input", str(synth_csv), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == LSTM_ALLOC_PREFIX + "Unable to allocate\n"
    assert not out.exists()
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


def test_lstm_worker_memory_error_in_the_test_predictions_exits_2(synth_csv, tmp_path, monkeypatch, capsys,
                                                                 worker_procs):
    """A worker refusing an allocation for the test predictions, after
    training and validating on it, is the same exit 2 as in-process."""
    trained = tmp_path / "trained"
    refusing_eval = (
        "import os, marketcast.lstm as lstm\n"
        "predict = lstm._LayerGroup.predict\n"
        "def refuse(*args):\n"
        f"    if os.path.exists({str(trained)!r}):\n"
        "        raise MemoryError('Unable to allocate')\n"
        "    return predict(*args)\n"
        "lstm._LayerGroup.predict = refuse\n"
    )
    train = pipeline.train

    def train_then_mark(*args, **kwargs):
        result = train(*args, **kwargs)
        trained.touch()
        return result

    monkeypatch.setattr(lstm, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_lstm_workers, "_WORKER_CODE", refusing_eval + _lstm_workers._WORKER_CODE)
    monkeypatch.setattr(pipeline, "train", train_then_mark)
    out = tmp_path / "out"
    assert cli.main([*SMALL_LSTM_RUN, "--input", str(synth_csv), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == LSTM_ALLOC_PREFIX + "Unable to allocate\n"
    assert trained.exists() and not out.exists()
    assert len(worker_procs) == 2 and all(proc.poll() is not None for proc in worker_procs)


def test_lstm_past_physical_memory_exits_2(synth_csv, tmp_path, monkeypatch, capsys):
    # on a faked 1 MiB machine the run needs more (its gates alone are 2.6 MB) and is
    # refused before the network is allocated
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(pipeline.os, "sysconf", lambda name: pages[name])
    monkeypatch.setattr(pipeline, "init_network", lambda *a: pytest.fail("allocated past the memory check"))
    out = tmp_path / "out"
    assert cli.main([*SMALL_LSTM_RUN, "--input", str(synth_csv), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(LSTM_ALLOC_PREFIX) and err.endswith(", and there is 1 MiB of physical memory\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_features_non_finite_splits_exit_2_before_ingest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "load_csv", lambda *a, **k: pytest.fail("preprocessing started"))
    assert cli.main(["features", "--input", str(tmp_path / "x.csv"), "--splits", "nan,0.2,0.2"]) == 2
    assert "split fractions must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("frac", ["nan", "inf", "-inf", "1.5", "0", "-0.1"])
def test_fit_arima_bad_train_frac_exits_2_before_reading(tmp_path, monkeypatch, capsys, frac):
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("the CSV was read"))
    out = tmp_path / "m.json"
    argv = ["fit-arima", "--input", str(tmp_path / "x.csv"), f"--train-frac={frac}", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "--train-frac must be a finite value in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_forecast_bad_steps_exits_2_before_reading(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("the CSV was read"))
    out = tmp_path / "preds.csv"
    argv = ["forecast", "--model", str(tmp_path / "missing.json"), "--input", str(tmp_path / "x.csv"),
            "--steps", "0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "error: --steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("triple", ["--order=1,-1,0", "--order=-1,0,0", "--order=1,0,-1", "--bounds=1,-1,1"])
def test_fit_arima_negative_integers_exit_2_before_reading(tmp_path, monkeypatch, capsys, triple):
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("the CSV was read"))
    out = tmp_path / "m.json"
    assert cli.main(["fit-arima", "--input", str(tmp_path / "x.csv"), triple, "--out", str(out)]) == 2
    assert "must be three non-negative integers" in capsys.readouterr().err
    assert not out.exists()


READ_INPUTS = [
    ("features", "--input"), ("fit-arima", "--input"), ("evaluate", "--input"), ("run", "--config"),
    ("forecast", "--model"),
]


@pytest.mark.parametrize(
    "command, flag, kind",
    [(command, flag, kind) for command, flag in READ_INPUTS for kind in ("directory", "missing")],
)
def test_unreadable_input_exits_2(tmp_path, capsys, command, flag, kind):
    # git cannot track an empty directory, so this case is built here, not in the corpus
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    extra = ["--input", str(BUNDLED_CSV), "--steps", "5"] if command == "forecast" else []
    assert cli.main([command, flag, str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"no such file: {path}\n" if kind == "missing" else f"cannot read {path}: ") in err


MALFORMED_DIR = Path(__file__).resolve().parent / "data" / "malformed"

FEATURES = ["features", "--input", "{input}", "--out", "{out}"]
FIT_ARIMA = ["fit-arima", "--input", "{input}", "--order", "1,1,0", "--out", "{out}"]
EVALUATE = ["evaluate", "--input", "{input}", "--out", "{out}"]
FORECAST = ["forecast", "--model", "{input}", "--input", str(BUNDLED_CSV), "--steps", "5", "--out", "{out}"]
RUN = ["run", "--config", "{input}", "--out-dir", "{out}"]
NOT_UTF8 = "cannot read {input}: 'utf-8' codec can't decode"

# (corpus file, argv with {input} and {out} to fill in, exit code, fragment of stderr)
MALFORMED = [
    ("truncated.csv", FEATURES, 2, "line 4: unparseable date '2020-01-0'"),
    ("repeated_header_row.csv", FEATURES, 2, "line 2: unparseable date 'DATE'"),
    ("nul_in_date.csv", FEATURES, 2, "line 3: unparseable date '2020-01-\\x0003'"),
    ("repeated_column.csv", FIT_ARIMA, 2, "column 'PX_LAST' appears more than once in the header"),
    ("repeated_column.csv", FEATURES, 2, "column 'PX_LAST' appears more than once in the header"),
    ("blank_column_name.csv", FEATURES, 2, "header cell 3 is empty"),
    ("trailing_comma_header.csv", FEATURES, 2, "header cell 4 is empty"),
    ("prices_not_utf8.csv", FEATURES, 2, NOT_UTF8),
    ("prices_not_utf8.csv", FIT_ARIMA, 2, NOT_UTF8),
    ("predictions_non_number.csv", EVALUATE, 2, "line 3: bad actual value 'ten'"),
    ("predictions_not_utf8.csv", EVALUATE, 2, NOT_UTF8),
    ("model_without_theta.json", FORECAST, 2, "malformed model file: 'theta'"),
    ("model_not_utf8.json", FORECAST, 2, NOT_UTF8),
    ("config_list.json", RUN, 2, "config file must hold a JSON object"),
    ("config_not_utf8.json", RUN, 2, NOT_UTF8),
    ("config_huge_int.json", RUN, 2, "lstm_lr must be a number, got 1000"),
    ("config_huge_int_digits.json", RUN, 2, "config is not valid JSON: Exceeds the limit (4300 digits)"),
    ("config_huge_lstm_hidden.json", RUN, 2, "lstm_hidden must be at most 536870911"),
    ("huge_cell.csv", FEATURES, 2, "huge_cell.csv: line 2: field larger than field limit (131072)"),
    ("huge_cell_predictions.csv", EVALUATE, 2, "huge_cell_predictions.csv: line 3: field larger than field limit"),
    ("config_deeply_nested.json", RUN, 2, "config is not valid JSON: maximum recursion depth exceeded"),
    ("model_deeply_nested.json", FORECAST, 2, "malformed model file: maximum recursion depth exceeded"),
    ("crlf_line_ends.csv", FEATURES, 0, ""),
]

# corpus files made in a temporary directory, not checked in, for their size
GENERATED = {
    "config_huge_int_digits.json": '{"input_path": "prices.csv", "lstm_lr": 1' + "0" * 5000 + "}\n",
    "huge_cell.csv": "DATE,A\n2020-01-01," + "1" * 140_000 + "\n",
    "huge_cell_predictions.csv": "date,actual,predicted\n2020-01-01,1.0,\n2020-01-02," + "1" * 140_000 + ",2.0\n",
    "config_deeply_nested.json": "[" * 100_000 + "]" * 100_000 + "\n",
    "model_deeply_nested.json": "[" * 100_000 + "]" * 100_000 + "\n",
}


@pytest.mark.parametrize(
    "name, argv, code, fragment", MALFORMED, ids=[f"{name}-{argv[0]}" for name, argv, _, _ in MALFORMED]
)
def test_malformed_input_corpus(tmp_path_factory, tmp_path, capsys, name, argv, code, fragment):
    path = MALFORMED_DIR / name
    if name in GENERATED:
        path = tmp_path_factory.mktemp("generated") / name
        path.write_text(GENERATED[name])
    out = tmp_path / "out"
    assert cli.main([arg.format(input=path, out=out) for arg in argv]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and fragment.format(input=path) in err
        assert list(tmp_path.iterdir()) == []
        return
    assert err == ""
    # the same file with LF line ends gives the same output, byte for byte
    lf = tmp_path / "lf.csv"
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    lf_out = tmp_path / "lf.out"
    assert cli.main([arg.format(input=lf, out=lf_out) for arg in argv]) == 0
    assert b"\r" in path.read_bytes() and out.read_bytes() == lf_out.read_bytes()


VALID_MODEL = {"order": [1, 1, 0], "phi": [0.2], "theta": [], "intercept": 0.0, "sigma2": 1.0, "n_obs": 100, "aic": 0.0}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, derandomize=True)
@given(replaced=st.dictionaries(st.sampled_from(sorted(VALID_MODEL)), JSON_VALUES, min_size=1))
def test_forecast_model_with_arbitrary_fields_exits_0_or_2(tmp_path_factory, replaced):
    # NaN and the infinities are written as NaN and Infinity, which the reader accepts
    base = tmp_path_factory.getbasetemp()
    model = base / "arbitrary_model.json"
    model.write_text(json.dumps({**VALID_MODEL, **replaced}))
    argv = [arg.format(input=model, out=base / "arbitrary_model.csv") for arg in FORECAST]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command, flag", [
    ("features", "--input"), ("evaluate", "--input"), ("features", "--config"), ("forecast", "--model"),
])
def test_utf8_bom_is_ignored(synth_csv, tmp_path, capsys, command, flag):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    contents = {
        ("features", "--input"): synth_csv.read_bytes(),
        ("evaluate", "--input"): b"date,actual,predicted\n2020-01-01,1.0,\n2020-01-02,2.0,2.5\n2020-01-03,3.0,2.5\n",
        ("features", "--config"): json.dumps({"input_path": str(synth_csv)}).encode(),
        ("forecast", "--model"): json.dumps(
            {"order": [1, 1, 0], "phi": [0.2], "theta": [], "intercept": 0.0, "sigma2": 1.0, "n_obs": 100, "aic": 0.0}
        ).encode(),
    }[command, flag]
    extra = ["--input", str(synth_csv), "--steps", "5"] if command == "forecast" else []
    results = []
    for name, data in (("plain", contents), ("bom", b"\xef\xbb\xbf" + contents)):
        path = tmp_path / name
        path.write_bytes(data)
        out = tmp_path / f"{name}.out"
        assert cli.main([command, flag, str(path), *extra, "--out", str(out)]) == 0, capsys.readouterr().err
        results.append(out.read_bytes())
    assert results[0] == results[1]


def test_config_file_checked_before_flags_override_it(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "load_csv", lambda *a, **k: pytest.fail("preprocessing started"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_path": str(tmp_path / "x.csv"), "lstm_epochs": 1.5}))
    assert cli.main(["run", "--config", str(cfg), "--epochs", "3", "--out-dir", str(tmp_path)]) == 2


def test_warning_prints_as_one_line(tmp_path):
    # in a subprocess: pytest records warnings itself, so none would reach stderr
    proc = run_cli(
        "fit-arima", "--input", BUNDLED_CSV, "--order", "3,0,1", "--train-frac", "0.7",
        "--out", tmp_path / "m.json",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: AR root at modulus 1.003027 is close to the unit circle\n"


def test_model_fit_errors_exit_3(tmp_path):
    flat = tmp_path / "flat.csv"
    rows = ["DATE,PX_LAST"] + [f"2020-01-{d:02d},5.0" for d in range(1, 29)]
    rows += [f"2020-02-{d:02d},5.0" for d in range(1, 29)]
    rows += [f"2020-03-{d:02d},5.0" for d in range(1, 29)]
    flat.write_text("\n".join(rows) + "\n")
    proc = run_cli("fit-arima", "--input", flat, "--bounds", "1,1,1", "--out", tmp_path / "m.json")
    assert proc.returncode == 3
    assert "error:" in proc.stderr



# ---------------------------------------------------------------- the flag grammar

# mostly values in range, so most argv reach the command; the rest are out of
# range, of the wrong type, or read as a flag
INT_TEXT = st.sampled_from(["1", "2", "3", "1", "2", "0", "-1", "x", "2.5"])
FLOAT_TEXT = st.sampled_from(["0.1", "0.5", "0.2", "0.01", "0", "1", "-1", "nan", "inf", "x"])
TRIPLE_TEXT = st.sampled_from(["1,1,1", "1,0,1", "0,1,0", "1,1,0", "0,0,0", "1,1", "a,b,c", "-1,0,0"])
COLUMN = st.sampled_from(["PX_LAST", "PX_LAST", "PX_LAST", "PX_VOLUME", "NOPE"])
SCAN_FLAGS = {
    "--target": COLUMN,
    "--splits": st.sampled_from(["0.6,0.2,0.2", "0.5,0.25,0.25", "0.6,0.2", "1,0,0", "x,y,z"]),
    "--threshold": FLOAT_TEXT,
}
TRAIN_FLAGS = {
    "--horizon": INT_TEXT,
    "--features": st.sampled_from(["with", "without", "both"]),
    "--seed": INT_TEXT,
    "--patience": INT_TEXT,
    "--dropout": FLOAT_TEXT,
    "--batch": INT_TEXT,
    "--lr": FLOAT_TEXT,
    "--dump-stage": st.sampled_from(["all", "windows", "scaler", "nope"]),
}
RUN_FLAGS = {
    **SCAN_FLAGS,
    **TRAIN_FLAGS,
    "--mode": st.sampled_from(["arima", "lstm", "both", "all", "nope"]),
    "--forecast": st.sampled_from(["static", "rolling", "nope"]),
}


def _flags(grammar: dict) -> st.SearchStrategy:
    """Up to three of the grammar's flags, each with a drawn value, as argv."""
    return (
        st.lists(st.sampled_from(sorted(grammar)), max_size=3, unique=True)
        .flatmap(lambda chosen: st.tuples(*[grammar[flag].map(lambda v, f=flag: [f, v]) for flag in chosen]))
        .map(lambda pairs: [arg for pair in pairs for arg in pair])
    )


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    """A tiny price CSV (61 rows after the 199 warm-up rows), a predictions
    file, a model file, a config, and a directory for every output."""
    base = tmp_path_factory.mktemp("grammar")
    files = {name: base / name for name in ("prices.csv", "preds.csv", "model.json", "config.json", "missing.csv")}
    synth.write_csv(synth.generate(3, 260), files["prices.csv"])
    files["preds.csv"].write_text("date,actual,predicted\n2020-01-01,1.0,\n2020-01-02,2.0,2.5\n2020-01-03,3.0,2.5\n")
    files["model.json"].write_text(json.dumps(VALID_MODEL))
    config = {"input_path": str(files["prices.csv"]), "window": 3, "lstm_hidden": 2, "arima_bounds": [1, 1, 1]}
    files["config.json"].write_text(json.dumps(config))
    (base / "out").mkdir()
    return base


@st.composite
def grammar_argv(draw, base):
    """argv for one subcommand: its required flags, sometimes naming a wrong
    or missing file, then optional flags. `run` and `train-lstm` train at W <=
    5, H <= 2 for one epoch and search at most (1,1,1); every output goes under
    base/out."""
    out = base / "out"
    prices = draw(st.sampled_from(["prices.csv"] * 4 + ["preds.csv", "missing.csv"]))
    prices = str(base / prices)
    any_file = str(base / draw(st.sampled_from(["preds.csv", "preds.csv", "prices.csv", "model.json", "missing.csv"])))
    command = draw(st.sampled_from(
        ["synth", "features", "fit-arima", "forecast", "fit-garch", "train-lstm", "run", "evaluate", "chart"]
    ))
    if command == "synth":
        return [command, "--out", str(out / "synth.csv"), *draw(_flags({
            "--seed": INT_TEXT, "--days": st.sampled_from(["205", "230", "204", "x"]), "--break-frac": FLOAT_TEXT,
            "--drift-before": FLOAT_TEXT, "--vol-before": FLOAT_TEXT, "--drift-after": FLOAT_TEXT,
            "--vol-after": FLOAT_TEXT, "--start-price": FLOAT_TEXT,
        }))]
    if command == "features":
        source = draw(st.sampled_from([["--input", prices], ["--config", str(base / "config.json")], []]))
        out_flag = draw(st.sampled_from([[], ["--out", str(out / "features.json")]]))
        return [command, *source, *out_flag, *draw(_flags(SCAN_FLAGS))]
    if command == "fit-arima":
        search = draw(st.sampled_from(["--bounds", "--order"]))
        return [command, "--input", prices, search, draw(TRIPLE_TEXT), "--out", str(out / "model.json"),
                *draw(_flags({"--column": COLUMN, "--train-frac": FLOAT_TEXT}))]
    if command == "forecast":
        model = str(base / draw(st.sampled_from(["model.json", "model.json", "prices.csv", "missing.csv"])))
        return [command, "--model", model, "--input", prices, "--steps", draw(INT_TEXT),
                "--out", str(out / "forecast.csv"),
                *draw(_flags({"--column": COLUMN, "--mode": st.sampled_from(["static", "rolling", "nope"])}))]
    if command == "fit-garch":
        return [command, "--input", prices, "--out-params", str(out / "garch.json"), "--out-csv", str(out / "garch.csv"),
                *draw(_flags({"--column": COLUMN, "--input-kind": st.sampled_from(["returns", "prices", "nope"])}))]
    if command in ("train-lstm", "run"):
        source = draw(st.sampled_from([["--input", prices], ["--config", str(base / "config.json")]]))
        tiny = ["--epochs", "1", "--window", draw(st.sampled_from(["3", "5", "1", "0"])),
                "--hidden", draw(st.sampled_from(["2", "1", "0"]))]
        if command == "run":
            tiny += ["--bounds", draw(TRIPLE_TEXT)]
        grammar = RUN_FLAGS if command == "run" else {**SCAN_FLAGS, **TRAIN_FLAGS}
        return [command, *source, "--out-dir", str(out / "run"), *tiny, *draw(_flags(grammar))]
    if command == "evaluate":
        return [command, "--input", any_file, *draw(st.sampled_from([[], ["--out", str(out / "report.txt")]]))]
    return [command, "--input", any_file, "--out", str(out / "chart.svg"), *draw(_flags({"--title": st.text(max_size=4)}))]


@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_cli_on_argv_from_the_flag_grammar_exits_0_1_2_or_3(grammar_files, data):
    """cli.main returns 0, 2 or 3, or exits 1 on a usage error, and never
    lets an exception out."""
    argv = data.draw(grammar_argv(grammar_files))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            assert exc.code == 1, err.getvalue()
        else:
            assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
