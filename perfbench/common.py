"""Shared plumbing: repo imports, statistics, work directory, result line."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Benchmark definition and the pinned output checks.
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = Path(__file__).resolve().parent / "pins.json"

#: Scratch space of one run, inside the checkout (removed at exit).
WORK_ROOT = ROOT / ".bench_work"

#: Where traced runs write their span files.
TRACE_ROOT = ROOT / ".bench_out"

#: Program sources the benchmark drives; without them it cannot run.
REQUIRED = ("src/repro/__init__.py", "benchmarks/bench_campaign.py",
            "benchmarks/bench_serve.py")


class SetupError(RuntimeError):
    """The checkout lacks the program the benchmark drives."""


def prepare_imports() -> None:
    """Put the checkout's ``src`` and root first on ``sys.path``."""
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        raise SetupError(
            f"not a repository checkout: missing {', '.join(missing)}"
        )
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         trace: bool) -> None:
    """Print the result line, with units taken from ``BENCHMARK.json``.

    ``metrics`` maps name -> value; it must hold exactly the metrics the
    benchmark declares for this mode (``end_to_end`` untraced,
    ``per_layer`` traced).
    """
    declared = load_json(BENCHMARK_FILE)["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            "metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}"
        )
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(line), flush=True)
