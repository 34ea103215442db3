"""Repository benchmark: four workloads against the program's public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-dense --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` first repeats a short untraced measurement, then installs
the timing wrappers of :mod:`perfbench.tracing` and reports the per-layer
split (busy seconds per pass, call counts, shares, tracing overhead and
coverage).  The last line of standard output is the JSON result; the
per-layer table goes to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("campaign-dense", "campaign-sparse", "campaign-resume",
             "serve-mixed")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def shares_table(rows: list[tuple[str, float]], total: float) -> None:
    log(f"{'layer metric':<28}{'per pass':>12}{'share':>9}")
    for name, value in rows:
        share = value / total if total else 0.0
        log(f"{name:<28}{value:>12.4f}{share:>9.1%}")


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at zero; each workload fills its own."""
    declared = common.load_json(common.BENCHMARK_FILE)["per_layer"]
    return {entry["name"]: 0.0 for entry in declared}


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def run_campaign_workload(args, workdir: Path) -> tuple[bool, int, int, dict]:
    from perfbench import campaign, tracing

    bench = campaign.Campaign(args.workload, args.seed, workdir)
    pins = common.load_json(common.PINS_FILE)["digests"]
    pinned = pins[bench.config.footprint].get(str(args.seed))
    if pinned is None:
        log(f"seed {args.seed} has no pinned digest; checking against set-up")
    setups = [bench.setup() for _ in range(campaign.SETUP_REPEATS)]
    setup_ok = pinned is None or bench.reference == pinned
    if not setup_ok:
        log(f"set-up digest {bench.reference} != pinned {pinned}")

    attempted = failed = 0

    def passes(seconds: float, minimum: int, tracer=None) -> list[dict]:
        nonlocal attempted, failed
        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < minimum or time.perf_counter() < deadline:
            before = Counter(tracer.counts) if tracer is not None else None
            elapsed, result = bench.one_pass()
            counts = (
                tracer.totals(Counter(tracer.counts) - before)
                if tracer is not None else {}
            )
            attempted += 1
            problems = bench.check(result, pinned)
            if problems:
                failed += 1
                log(f"pass {attempted} failed: {'; '.join(problems)}")
            done.append({"seconds": elapsed, "result": result, "counts": counts})
        return done

    if not args.trace:
        timed = passes(args.seconds, campaign.MIN_PASSES)
        pass_s = common.median([p["seconds"] for p in timed])
        sessions = timed[0]["result"].aggregate.n_sessions
        metrics = {
            "setup_s": common.median(setups),
            "pass_s": pass_s,
            "items_per_s": common.median(
                [p["result"].aggregate.n_sessions / p["seconds"] for p in timed]
            ),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        log(
            f"{args.workload} seed {args.seed}: {len(timed)} passes, "
            f"{sessions} sessions, pass_s {pass_s:.4f}, setups "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
        return setup_ok and not failed, attempted, failed, metrics

    untraced = passes(args.seconds / 2, 2)
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    campaign.install_wrappers(tracer)
    try:
        traced = passes(args.seconds / 2, 2, tracer)
    finally:
        tracer.restore()
    tracing.write_spans(
        common.TRACE_ROOT / f"{args.workload}-seed{args.seed}.jsonl",
        tracer.run_id, tracer.spans,
    )

    root = "driver.run_campaign"
    groups = tracing.by_root(tracer.spans, root)
    per_pass = []
    for group, measured in zip(groups, traced):
        busy = tracing.busy_seconds(group, tracer.names)
        own = tracing.self_seconds(group)
        counts = measured["counts"]
        result = measured["result"]
        per_pass.append({
            "trace.pass_s": busy[root],
            "trace.coverage": tracing.coverage(group, root, campaign.STRUCTURAL),
            "generator.units_s": busy["generator.units"],
            "generator.sampler_build_s": busy["generator.sampler_build"],
            "generator.arrivals_s": busy["generator.arrivals"],
            "generator.unit_seed_s": busy["generator.unit_seed"],
            "generator.sessions": counts["generator.sessions"],
            "generator.units": counts["generator.unit_count"],
            "generator.sampler_builds": counts["generator.sampler_build.calls"],
            "sketches.fold_s": busy["sketches.fold"],
            "sketches.fingerprint_s": busy["sketches.fingerprint"],
            "sketches.hll_s": busy["sketches.hll"],
            "sketches.histogram_s": busy["sketches.histogram"],
            "sketches.moments_s": busy["sketches.moments"],
            "sketches.serialize_s": busy["sketches.serialize"],
            "sketches.parse_s": busy["sketches.parse"],
            "sketches.merge_s": busy["sketches.merge"],
            "sketches.folds": counts["sketches.fold.calls"],
            "driver.self_s": own[root],
            "driver.key_s": busy["driver.content_key"] + busy["driver.bank_json"],
            "driver.shards": result.n_shards,
            "driver.shards_computed": result.computed_shards,
            "driver.shards_resumed": result.resumed_shards,
            "cache.store_s": busy["cache.store"],
            "cache.fetch_s": busy["cache.fetch"],
            "cache.has_s": busy["cache.has"],
            "cache.stores": counts["cache.store.calls"],
            "cache.fetches": counts["cache.fetch.calls"],
            "cache.resume_ratio": result.resumed_shards / result.n_shards,
            "executor.map_calls": counts["executor.map.calls"],
        })
    metrics = zero_layers()
    for name in per_pass[0]:
        metrics[name] = common.median([p[name] for p in per_pass])
    checkpoints = list(bench.cache.root.glob("*/*.json")) if bench.cache else []
    if checkpoints:
        metrics["cache.checkpoint_bytes"] = sum(
            path.stat().st_size for path in checkpoints
        ) / len(checkpoints)
    untraced_s = common.median([p["seconds"] for p in untraced])
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced_s
    traced_s = metrics["trace.pass_s"]
    for share, part in (
        ("share.generator_units", "generator.units_s"),
        ("share.sketches_fold", "sketches.fold_s"),
        ("share.driver_key", "driver.key_s"),
        ("share.driver_self", "driver.self_s"),
        ("share.cache_store", "cache.store_s"),
        ("share.cache_fetch", "cache.fetch_s"),
    ):
        metrics[share] = metrics[part] / traced_s
    shares_table(
        [(name, metrics[name]) for name in per_pass[0] if name.endswith("_s")],
        traced_s,
    )
    log(
        f"untraced pass {untraced_s:.4f} s, traced {traced_s:.4f} s, "
        f"overhead {metrics['trace.overhead_s']:+.4f} s, "
        f"coverage {metrics['trace.coverage']:.1%}"
    )
    return setup_ok and not failed, attempted, failed, metrics


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def run_serve_workload(args) -> tuple[bool, int, int, dict]:
    from perfbench import serve, tracing

    tw_start = serve.sockstat_tw()
    bench = serve.Serve(args.seed, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setups = [bench.setup() for _ in range(serve.SETUP_REPEATS)]
        budget = (
            serve.MAX_CONNECTIONS - serve.SETUP_REPEATS * serve.WARMUP_REQUESTS
        ) // serve.SWEEP_REQUESTS

        def sweeps(seconds: float, minimum: int) -> list[dict]:
            nonlocal budget
            done = []
            deadline = time.perf_counter() + seconds
            while budget > 0 and (
                len(done) < minimum or time.perf_counter() < deadline
            ):
                done.append(bench.sweep())
                budget -= 1
            return done

        if args.trace:
            untraced = sweeps(args.seconds / 2, 2)
            bench.trace_on()
            timed = sweeps(args.seconds / 2, 2)
        else:
            untraced, timed = [], sweeps(args.seconds, 3)
    finally:
        outcome = bench.stop()
    tw_end = serve.sockstat_tw()
    if outcome is None:
        raise RuntimeError("server process did not report back")
    rss, spans, names, counts = outcome

    everything = bench.warmups + untraced + timed
    attempted = sum(len(s["reads"]) + len(s["submits"]) for s in everything)
    problems = [p for s in everything for p in s["problems"]]
    for problem in problems[:10]:
        log(f"failed: {problem}")
    failed = len(problems)
    log(f"TIME_WAIT sockets: {tw_start} at start, {tw_end} at end")

    def summary(runs: list[dict]) -> dict:
        reads = [x for s in runs for x in s["reads"]]
        submits = [x for s in runs for x in s["submits"]]
        seconds = sum(s["seconds"] for s in runs)
        return {
            "pass_s": common.median([s["seconds"] for s in runs]),
            "check_s": common.median([s["check_seconds"] for s in runs]),
            "read_share": sum(reads) / seconds,
            "submit_share": sum(submits) / seconds,
            "requests_per_s": common.median(
                [len(s["latencies"]) / s["seconds"] for s in runs]
            ),
            "read_p50_ms": common.percentile(reads, 50) * 1e3,
            "read_p90_ms": common.percentile(reads, 90) * 1e3,
            "read_p99_ms": common.percentile(reads, 99) * 1e3,
            "submit_p50_ms": common.percentile(submits, 50) * 1e3,
            "reads": len(reads),
            "submits": len(submits),
        }

    if not args.trace:
        measured = summary(timed)
        log(
            f"serve-mixed seed {args.seed}: {len(timed)} passes, "
            f"{measured['reads']} reads p50 {measured['read_p50_ms']:.3f} "
            f"p90 {measured['read_p90_ms']:.3f} p99 "
            f"{measured['read_p99_ms']:.3f} ms, {measured['submits']} "
            f"submits p50 {measured['submit_p50_ms']:.3f} ms, "
            f"{measured['requests_per_s']:.0f} req/s, pass {measured['pass_s']:.4f} s "
            f"(reads {measured['read_share']:.1%}, submits "
            f"{measured['submit_share']:.1%}; checks after the clock "
            f"{measured['check_s']:.4f} s), setups "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
        metrics = {
            "setup_s": common.median(setups),
            "pass_s": measured["pass_s"],
            "items_per_s": measured["requests_per_s"],
            "peak_rss_mb": rss,
        }
        return not failed, attempted, failed, metrics

    tracing.write_spans(
        common.TRACE_ROOT / f"{args.workload}-seed{args.seed}.jsonl",
        bench.run_id, spans,
    )
    base, traced = summary(untraced), summary(timed)
    n = len(timed)
    busy = tracing.busy_seconds(spans, names)
    app_spans = sorted(
        (s for s in spans if s[tracing.NAME] == "serve.app"),
        key=lambda s: s[tracing.START],
    )
    latencies = [
        (entry[0] == "submit", seconds)
        for sweep_result in timed
        for entry, seconds in zip(bench.plan, sweep_result["latencies"])
    ]
    transport = [
        (seconds - (span[tracing.END] - span[tracing.START])) * 1e3
        for (is_submit, seconds), span in zip(latencies, app_spans)
        if not is_submit
    ]
    if len(app_spans) != len(latencies):
        log(f"{len(app_spans)} app spans for {len(latencies)} requests")
    submits_per_pass = traced["submits"] / n
    metrics = zero_layers()
    metrics.update({
        "trace.pass_s": traced["pass_s"],
        "trace.untraced_pass_s": base["pass_s"],
        "trace.overhead_s": traced["pass_s"] - base["pass_s"],
        "trace.coverage": busy["serve.app"] / sum(s["seconds"] for s in timed),
        "serve.read_p50_ms": base["read_p50_ms"],
        "serve.read_p90_ms": base["read_p90_ms"],
        "serve.read_p99_ms": base["read_p99_ms"],
        "serve.submit_p50_ms": base["submit_p50_ms"],
        "serve.app_s": busy["serve.app"] / n,
        "serve.transport_ms": common.median(transport) if transport else 0.0,
        "serve.requests": counts["serve.app.calls"] / n,
        "serve.non2xx": sum(": HTTP " in problem for problem in problems),
        "serve.time_wait_start": tw_start,
        "serve.time_wait_end": tw_end,
        "store.document_s": busy["store.document"] / n,
        "store.listing_s": (busy["store.campaigns"] + busy["store.listing_etag"]) / n,
        "store.trace_s": busy["store.trace"] / n,
        "store.submit_s": busy["store.submit"] / n,
        "store.documents": counts["store.document.calls"] / n,
        "store.listings": counts["store.campaigns.calls"] / n,
        "store.traces": counts["store.trace.calls"] / n,
        "store.submits": counts["store.submit.calls"] / n,
        "views.documents_s": busy["views.documents"] / n,
        "fidelity.evaluate_s": busy["fidelity.evaluate"] / n,
        "sketches.digest_s": busy["sketches.digest"] / n,
        "sketches.digests_per_submit": (
            counts["sketches.digest.calls"] / n / submits_per_pass
        ),
        "expose.render_s": busy["expose.render"] / n,
        "expose.renders": counts["expose.render.calls"] / n,
    })
    metrics["share.serve_reads"] = base["read_share"]
    metrics["share.serve_submits"] = base["submit_share"]
    metrics["share.serve_transport"] = (
        metrics["serve.transport_ms"] / metrics["serve.read_p50_ms"]
    )
    shares_table(
        [(name, metrics[name]) for name in sorted(metrics)
         if name.endswith("_s") and not name.startswith("trace.")
         and metrics[name]],
        traced["pass_s"],
    )
    log(
        f"untraced pass {base['pass_s']:.4f} s, traced "
        f"{traced['pass_s']:.4f} s, read p50 {base['read_p50_ms']:.3f} ms "
        f"of which transport {metrics['serve.transport_ms']:.3f} ms "
        f"({metrics['share.serve_transport']:.1%})"
    )
    return not failed, attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.prepare_imports()
    except common.SetupError as exc:
        log(f"perfbench: {exc}")
        return 2

    workdir = common.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "serve-mixed":
            outcome = run_serve_workload(args)
        else:
            outcome = run_campaign_workload(args, common.fresh_dir(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass
    correct, attempted, failed, metrics = outcome
    common.emit(correct, attempted, failed, metrics, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
