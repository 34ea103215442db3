"""Telemetry cost on the streamed generation path.

``test_determinism.py`` pins that telemetry never changes the output; this
pins what it costs: the instrumented streamed path stays within 3% of the
plain one on the perf-gate workload (one day through a reused arena).
"""

import statistics
import time

from repro.core.generator import DEFAULT_CHUNK_SESSIONS
from repro.dataset.records import SessionArena
from repro.obs.telemetry import Telemetry

#: Relative budget, with no absolute slack that could mask a breach.
OVERHEAD_BUDGET = 0.03

#: Adjacent (plain, instrumented) pass pairs timed.
PAIRS = 150


def test_streamed_overhead_within_budget(decile_generator, tmp_path):
    """Median over adjacent pass pairs of instrumented / plain wall time.

    The two passes of a pair run back to back, in alternating order from
    pair to pair, so drift slower than one pair cancels in the ratio and
    cannot favour either side; the median discards pairs that a burst of
    host noise hit on one side only.  The instrumented side carries the
    whole subsystem: chunk spans, throughput counters and the
    ``events.jsonl`` sink on disk.
    """
    arena = SessionArena(capacity=int(DEFAULT_CHUNK_SESSIONS * 1.1))
    telemetry = Telemetry(directory=tmp_path, verbosity=0)

    def timed_pass(obs):
        start = time.perf_counter()
        for chunk in decile_generator.iter_campaign_chunks(
            1, 0, chunk_sessions=DEFAULT_CHUNK_SESSIONS,
            telemetry=obs, arena=arena,
        ):
            len(chunk.table)
        return time.perf_counter() - start

    timed_pass(None)
    timed_pass(telemetry)
    ratios = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            plain = timed_pass(None)
            instrumented = timed_pass(telemetry)
        else:
            instrumented = timed_pass(telemetry)
            plain = timed_pass(None)
        ratios.append(instrumented / plain)
    manifest = telemetry.finalize(command="test-overhead", seed=0)
    assert manifest["spans"]["by_kind"] == {"chunk": PAIRS + 1}
    assert statistics.median(ratios) - 1.0 <= OVERHEAD_BUDGET
