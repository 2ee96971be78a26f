import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from marketcast import cli, pipeline
from marketcast.chart import read_predictions
from marketcast.errors import DataError

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


@pytest.mark.parametrize(
    "payload",
    [
        [1],
        {"order": 5},
        {"order": [1, 1, 0], "phi": [0.5], "theta": [], "intercept": None,
         "sigma2": 1.0, "n_obs": 100, "aic": 10.0},
    ],
    ids=["list", "scalar-order", "null-intercept"],
)
def test_forecast_malformed_model_exits_2(synth_csv, tmp_path, capsys, payload):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "preds.csv"
    code = cli.main(["forecast", "--model", str(model), "--input", str(synth_csv), "--steps", "5", "--out", str(out)])
    assert code == 2
    assert "error: malformed model file: " in capsys.readouterr().err
    assert not out.exists()


ARMA11_MODEL = {"order": [1, 0, 1], "phi": [0.5], "theta": [0.2], "intercept": 0.1,
                "sigma2": 1.0, "n_obs": 100, "aic": 10.0}
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


@pytest.mark.parametrize("triple", ["--order=1,-1,0", "--order=-1,0,0", "--order=1,0,-1", "--bounds=1,-1,1"])
def test_fit_arima_negative_integers_exit_2_before_reading(tmp_path, monkeypatch, capsys, triple):
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("the CSV was read"))
    out = tmp_path / "m.json"
    assert cli.main(["fit-arima", "--input", str(tmp_path / "x.csv"), triple, "--out", str(out)]) == 2
    assert "must be three non-negative integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, kind",
    [
        ("features", "--input", "directory"),
        ("features", "--input", "not_utf8"),
        ("fit-arima", "--input", "not_utf8"),
        ("evaluate", "--input", "directory"),
        ("evaluate", "--input", "not_utf8"),
        ("run", "--config", "directory"),
        ("run", "--config", "not_utf8"),
    ],
)
def test_unreadable_input_exits_2(tmp_path, capsys, command, flag, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"DATE,PX_LAST\n2020-01-01,1.0\xff\n")
    assert cli.main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


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
