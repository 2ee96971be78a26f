"""Importing marketcast loads no scipy module and no numpy.random (numpy loads
it lazily; only synth and the LSTM's random streams use it, at call time), nor
the LSTM's layer workers or what starts them, and the commands that fit no
model, or only a pure-AR one, run with scipy unimportable. Importing the CLI
sets one BLAS thread unless the environment already names a count."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd, env=None) -> subprocess.CompletedProcess:
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_import_loads_no_scipy(tmp_path):
    # the layer workers' module, and the modules only it needs, load when a
    # run starts workers
    proc = run_python(
        """
        import sys
        import marketcast
        import marketcast.cli
        deferred = {"marketcast._lstm_workers", "subprocess", "socket", "mmap"}
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy" or m.startswith("numpy.random") or m in deferred))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_without_a_model_fit_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError;
    # fit-garch, which needs scipy, shows that the block holds
    proc = run_python(
        """
        import json
        import sys
        sys.modules["scipy"] = None
        from marketcast import cli

        commands = [
            ["synth", "--out", "prices.csv", "--days", "400", "--seed", "5"],
            ["features", "--input", "prices.csv", "--out", "features.json"],
            ["run", "--input", "prices.csv", "--out-dir", "out", "--mode", "lstm", "--epochs", "1",
             "--window", "60", "--hidden", "8", "--batch", "16"],
            ["evaluate", "--input", "out/predictions_lstm.csv", "--out", "evaluate.txt"],
            ["chart", "--input", "out/predictions_lstm.csv", "--out", "chart.svg"],
            # Nelder-Mead is in-house, so a pure-AR fit needs no scipy either
            ["fit-arima", "--input", "prices.csv", "--order", "2,1,0", "--out", "ar_fit.json"],
        ]
        codes = {argv[0]: cli.main(argv) for argv in commands}
        # a pure-AR model forecasts without the MA filter, so without scipy
        with open("ar.json", "w") as fh:
            json.dump({"order": [2, 1, 0], "phi": [0.3, -0.1], "theta": [], "intercept": 0.01,
                       "sigma2": 1.0, "n_obs": 300, "aic": 900.0}, fh)
        for mode in ("static", "rolling"):
            codes[f"forecast {mode}"] = cli.main(["forecast", "--model", "ar.json", "--input", "prices.csv",
                                                  "--steps", "20", "--mode", mode, "--out", f"{mode}.csv"])
        try:
            cli.main(["fit-garch", "--input", "prices.csv", "--out-params", "g.json", "--out-csv", "g.csv"])
        except ImportError:
            codes["fit-garch"] = "ImportError"
        print(codes)
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = ("synth", "features", "run", "evaluate", "chart", "fit-arima",
             "forecast static", "forecast rolling")
    codes = {name: 0 for name in names}
    codes["fit-garch"] = "ImportError"
    assert proc.stdout.splitlines()[-1] == str(codes), proc.stderr
    assert (tmp_path / "chart.svg").is_file()
    assert (tmp_path / "static.csv").is_file() and (tmp_path / "rolling.csv").is_file()


def test_cli_import_sets_one_blas_thread_unless_set(tmp_path):
    code = """
        import os
        import marketcast.cli
        print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
        """
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    unset = run_python(code, tmp_path, env)
    assert unset.returncode == 0, unset.stderr
    assert unset.stdout.split() == ["1", "1"]
    kept = run_python(code, tmp_path, {**env, "OPENBLAS_NUM_THREADS": "3"})
    assert kept.returncode == 0, kept.stderr
    assert kept.stdout.split() == ["3", "1"]
