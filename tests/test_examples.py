"""Smoke tests: every example script runs to completion.

Examples are part of the public documentation; they must not rot.  Each
runs in a subprocess with a generous timeout; the slowest (full use-case
walkthroughs) are excluded here because the benchmark suite exercises the
same entry points at equal or larger scale.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "probe_pipeline.py",
    "fit_custom_service.py",
    "model_release_roundtrip.py",
    "model_drift.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # every example narrates its output


def test_all_examples_are_known():
    # New example scripts must be registered here or in the slow set the
    # benches cover, so none silently escapes CI.
    known = set(FAST_EXAMPLES) | {
        "slicing_capacity_planning.py",   # covered by bench_table2_slicing
        "vran_energy.py",                 # covered by bench_fig13b
        "characterize_campaign.py",       # covered by bench_fig04/06/08
    }
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == known
