"""Standard stages wiring the library's layers into pipelines.

Builders for the named stages the CLI (and scripts) assemble into runs:

* ``network`` — construct the synthetic BS population;
* ``simulate`` — run the measurement campaign across (day, BS) seed-stream
  work units, cached as a compressed ``.npz`` session table;
* ``fit-models`` — per-service session-level model fitting fan-out;
* ``fit-arrivals`` — per-decile bi-modal arrival model fitting;
* ``read-trace`` — load a campaign from a CSV(.gz) trace instead;
* ``generate`` — stream a campaign from a ``TrafficGenerator`` via the
  batched seed-stream engine, chunk by chunk, optionally into a trace;
* ``validate`` — check a campaign against the paper's stylized facts;
* ``verify`` — the statistical fidelity gate: measure the paper's headline
  statistics on the run's artifacts and judge them against the golden
  baseline of tolerance bands.

Each builder closes over its scalar configuration and returns a
:class:`~repro.pipeline.stages.Stage`; the cacheable ones declare the
configuration in their :class:`~repro.pipeline.stages.ArtifactSpec` key so
any change — seed, scale, mobility, catalog — cleanly misses the cache.
"""

from __future__ import annotations

from pathlib import Path

from ..io.cache import load_table, save_table
from .stages import ArtifactSpec, Stage

#: Default BS count of pipeline-built networks (mirrors the CLI default).
DEFAULT_N_BS = 50


def network_stage(n_bs: int) -> Stage:
    """Stage building the synthetic BS population on the ``network`` stream."""
    from ..dataset.network import Network, NetworkConfig

    def build(ctx, artifacts):
        return Network(NetworkConfig(n_bs=n_bs), ctx.rng("network"))

    return Stage(name="network", produces="network", fn=build)


def simulate_stage(n_days: int) -> Stage:
    """Stage simulating the measurement campaign (cached by config + seed).

    The campaign is keyed by the run seed, the network configuration, the
    simulation configuration and the service catalog — the full set of
    facts that determine its content — and persisted as ``.npz``, so a
    repeated ``fit``/``validate`` run skips re-simulation entirely.
    """
    from ..dataset.records import SERVICE_NAMES
    from ..dataset.simulator import SimulationConfig, simulate

    config = SimulationConfig(n_days=n_days)

    def run(ctx, artifacts):
        with ctx.executor() as executor:
            return simulate(
                artifacts["network"], config, ctx.seed, executor=executor
            )

    def key_parts(ctx, artifacts):
        return {
            "artifact": "campaign",
            "seed": ctx.seed,
            "network": artifacts["network"].config,
            "simulation": config,
            "services": list(SERVICE_NAMES),
        }

    return Stage(
        name="simulate",
        produces="campaign",
        requires=("network",),
        fn=run,
        spec=ArtifactSpec(
            kind="campaign",
            suffix=".npz",
            save=save_table,
            load=load_table,
            key_parts=key_parts,
        ),
    )


def read_trace_stage(path: str | Path) -> Stage:
    """Stage loading the campaign from an existing CSV(.gz) trace."""
    from ..io.traces import read_trace

    def run(ctx, artifacts):
        return read_trace(path)

    return Stage(name="read-trace", produces="campaign", fn=run)


def fit_models_stage(min_sessions: int = 500) -> Stage:
    """Stage fitting one session-level model per service (worker fan-out)."""
    from ..core.model_bank import ModelBank

    def run(ctx, artifacts):
        with ctx.executor() as executor:
            return ModelBank.fit_from_table(
                artifacts["campaign"],
                min_sessions=min_sessions,
                executor=executor,
            )

    return Stage(
        name="fit-models", produces="bank", requires=("campaign",), fn=run
    )


def fit_arrivals_stage(n_days: int) -> Stage:
    """Stage fitting the per-decile bi-modal arrival models (Fig 3)."""
    from ..core.arrivals import fit_decile_arrival_models

    def run(ctx, artifacts):
        fitted = fit_decile_arrival_models(
            artifacts["campaign"], artifacts["network"], n_days
        )
        return {f"decile-{decile}": model for decile, model in fitted.items()}

    return Stage(
        name="fit-arrivals",
        produces="arrivals",
        requires=("campaign", "network"),
        fn=run,
    )


def generate_stage(
    n_days: int,
    chunk_sessions: int | None = None,
    trace: str | Path | None = None,
) -> Stage:
    """Stage streaming a campaign from a ``generator`` artifact.

    Runs the batched engine of
    :class:`~repro.core.generator.TrafficGenerator` under the run context's
    executor and root seed; every (day, BS) unit draws from its own spawned
    seed stream, so the campaign is byte-identical for any ``--jobs`` or
    ``chunk_sessions`` setting.  Chunks stream through one reused arena as
    zero-copy views, each summed into the totals (and, with ``trace``,
    appended to that CSV(.gz) file) before the next is drawn, so peak
    memory stays bounded by one chunk.  Nothing is cached: the campaign
    regenerates byte for byte from the seed.  Produces a
    :class:`~repro.core.generator.GenerationResult`.
    """
    from ..core.generator import GenerationResult
    from ..io.traces import write_trace

    def run(ctx, artifacts):
        generator = artifacts["generator"]
        plans = generator.plan_chunks(n_days, chunk_sessions)
        n_sessions, total_volume = 0, 0.0
        with ctx.executor() as executor:
            chunks = generator.iter_campaign_chunks(
                n_days,
                ctx.seed,
                executor=executor,
                chunk_sessions=chunk_sessions,
                telemetry=ctx.telemetry,
                arena=generator.chunk_arena(plans),
            )

            def tables():
                nonlocal n_sessions, total_volume
                for chunk in chunks:
                    n_sessions += len(chunk.table)
                    total_volume += chunk.table.total_volume_mb()
                    yield chunk.table

            if trace is None:
                for _ in tables():
                    pass
            else:
                write_trace(tables(), trace)
        return GenerationResult(
            n_sessions=n_sessions,
            total_volume_mb=total_volume,
            n_chunks=len(plans),
        )

    def summarize(result):
        return {
            "sessions": result.n_sessions,
            "chunks": result.n_chunks,
            "GB": round(result.total_volume_mb / 1e3, 1),
        }

    return Stage(
        name="generate",
        produces="generated",
        requires=("generator",),
        fn=run,
        summarize=summarize,
    )


def verify_stage(baseline, n_days: int) -> Stage:
    """Stage running the statistical fidelity gate on the run's artifacts.

    Measures the paper's headline statistics (service ranking, volume and
    duration model fidelity, arrival-process recovery, circadian structure)
    on the campaign/network/bank artifacts and judges them against the
    ``baseline`` tolerance bands.  The produced ``fidelity`` artifact is a
    :class:`~repro.verify.report.FidelityReport`; its verdict counts are
    surfaced through the stage-event payload, so observers see the outcome
    without touching the artifact namespace.
    """

    def run(ctx, artifacts):
        # Imported lazily: repro.verify's runner assembles pipelines from
        # this module, so a module-level import would be circular.
        from ..verify.checks import evaluate, measure_all

        measured = measure_all(
            artifacts["campaign"],
            artifacts["network"],
            artifacts["bank"],
            n_days,
            ctx.rng("verify"),
        )
        report = evaluate(measured, baseline)
        report.meta.update(
            {"seed": ctx.seed, "campaign": baseline.campaign.to_dict()}
        )
        report.record_metrics(ctx.obs.metrics)
        return report

    return Stage(
        name="verify",
        produces="fidelity",
        requires=("campaign", "network", "bank"),
        fn=run,
        summarize=lambda report: report.summary(),
    )


def validate_stage(n_days: int) -> Stage:
    """Stage validating the campaign against the paper's stylized facts."""
    from ..analysis.validation import validate_campaign

    def run(ctx, artifacts):
        return validate_campaign(artifacts["campaign"], n_days)

    return Stage(
        name="validate", produces="report", requires=("campaign",), fn=run
    )
