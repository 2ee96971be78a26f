"""Importing marketcast loads no scipy module, and the commands that fit no
model run with scipy unimportable."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_import_loads_no_scipy(tmp_path):
    proc = run_python(
        """
        import sys
        import marketcast
        import marketcast.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
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
        ]
        codes = {argv[0]: cli.main(argv) for argv in commands}
        try:
            cli.main(["fit-garch", "--input", "prices.csv", "--out-params", "g.json", "--out-csv", "g.csv"])
        except ImportError:
            codes["fit-garch"] = "ImportError"
        print(codes)
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    codes = {name: 0 for name in ("synth", "features", "run", "evaluate", "chart")}
    codes["fit-garch"] = "ImportError"
    assert proc.stdout.splitlines()[-1] == str(codes), proc.stderr
    assert (tmp_path / "chart.svg").is_file()
