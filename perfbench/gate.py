"""Correctness gate for one workload iteration.

An iteration fails when it raised, when a predictions file holds a missing or
non-finite prediction in its forecast span, when an artifact it must write is
absent, or when any artifact differs by a byte from the first iteration of the
same run (same seed, same input, same process). A changed prediction hash
between runs or commits is drift to declare, not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# npz checkpoints embed zip timestamps, so they cannot be compared bytewise
SKIPPED_SUFFIXES = (".npz",)


def snapshot(out_dir: Path) -> dict[str, bytes]:
    """Every comparable artifact under `out_dir`, keyed by relative path."""
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.suffix not in SKIPPED_SUFFIXES
    }


def prediction_hashes(files: dict[str, bytes]) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in files.items()
        if name.startswith("predictions_")
    }


def prediction_problems(name: str, data: bytes) -> list[str]:
    """Missing or non-finite predictions after the leading context rows.

    format_predictions writes NaN as an empty cell, so an empty cell after the
    first prediction is a NaN prediction.
    """
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    cells = [row[2].strip() if len(row) == 3 else None for row in rows[1:]]
    filled = [i for i, cell in enumerate(cells) if cell]
    if len(filled) < 2:
        return [f"{name}: fewer than 2 predictions"]
    problems = []
    for i in range(filled[0], len(cells)):
        cell = cells[i]
        try:
            ok = cell is not None and cell != "" and math.isfinite(float(cell))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{name}: line {i + 2}: prediction {cell!r} is not a finite number")
    return problems


def check(files: dict[str, bytes], required, reference: dict[str, bytes] | None) -> list[str]:
    """Problems with one iteration's artifacts; empty when it passes."""
    problems = [f"{name}: not written" for name in required if name not in files]
    for name, data in files.items():
        if name.startswith("predictions_"):
            problems.extend(prediction_problems(name, data))
    if reference is not None:
        for name in sorted(set(reference) | set(files)):
            if reference.get(name) != files.get(name):
                problems.append(f"{name}: differs from the first iteration")
    return problems


def arima_order(files: dict[str, bytes]) -> tuple[int, ...] | None:
    data = files.get("arima_model.json")
    return None if data is None else tuple(json.loads(data)["order"])
