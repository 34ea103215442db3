"""Sharded campaign driver: nationwide scale in bounded memory.

The driver splits a campaign into (day, BS-range) **shards**, fans the
shards across the pipeline executors, and keeps only each shard's
:class:`~repro.campaign.sketches.CampaignAggregate` — sessions are
synthesized into a per-process reused arena, folded into the sketches,
and dropped before the next sub-chunk is drawn.  Peak memory is bounded
by the per-worker chunk budget, never by campaign size.

Determinism and resume rest on three invariants:

* every (day, BS) unit runs on its own spawned seed stream
  (:func:`repro.core.generator.unit_seed`), so a shard's sessions are
  byte-identical to the same units' slice of any other sharding;
* sketch merges are bit-exactly associative and commutative, and the
  parent always folds shard aggregates in canonical shard-index order,
  so serial, parallel and resumed runs produce byte-identical campaign
  aggregates (same :meth:`CampaignAggregate.digest`);
* each completed shard is checkpointed through the content-keyed
  artifact cache (kind ``campaign-shard``) under a key derived from the
  models, the root seed, the shard's unit set and the sketch
  configuration — a killed run resumes exactly, recomputing only the
  shards whose checkpoints are missing or fail validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.generator import TrafficGenerator, coerce_root_seed
from ..dataset.records import SessionArena
from ..io.cache import ArtifactCache, CacheError, Described, content_key
from ..obs.progress import ProgressTracker
from ..pipeline.context import mint_trace_id
from ..pipeline.executors import ParallelExecutor, SerialExecutor, peak_rss_mb
from .sketches import (
    DEFAULT_HLL_PRECISION,
    DEFAULT_HLL_SEED,
    SKETCH_FORMAT_VERSION,
    CampaignAggregate,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Telemetry

#: Artifact kind of per-shard checkpoint aggregates in the cache.
CHECKPOINT_KIND = "campaign-shard"

#: Checkpoints are canonical-JSON aggregate dumps.
CHECKPOINT_SUFFIX = ".json"

#: Default number of base stations per shard: at paper-scale arrival
#: rates one shard stays a few hundred thousand sessions — seconds of
#: work and a few MB of arena per worker.
DEFAULT_SHARD_BS = 64

#: Default per-worker sub-chunk budget (expected sessions drawn into the
#: arena at once); the worker's peak RSS scales with this, not the shard.
DEFAULT_SHARD_CHUNK_SESSIONS = 250_000

#: Per-process reusable worker state (the shard arena).  Never pickled;
#: each worker process grows its own lazily and reuses it forever.
_WORKER_STATE: dict[str, object] = {}


class CampaignError(ValueError):
    """Raised on invalid campaign configuration."""


@dataclass(frozen=True)
class Shard:
    """One unit of campaign work: a (day, BS-range) slice.

    ``index`` is the shard's position in the canonical day-major plan;
    the parent folds shard aggregates in index order so the merged
    campaign is byte-identical no matter which workers finished first.
    """

    index: int
    day: int
    bs_ids: tuple[int, ...]

    def units(self) -> list[tuple[int, int]]:
        """The shard's (day, bs_id) work units in canonical order."""
        return [(self.day, bs_id) for bs_id in self.bs_ids]


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a sharded campaign run.

    ``aggregate`` is the campaign-level statistic bundle; the shard
    counters record how much work the run actually performed versus
    resumed from checkpoints.
    """

    aggregate: CampaignAggregate
    n_shards: int
    resumed_shards: int
    computed_shards: int
    root_seed: int
    trace_id: str | None = None

    def digest(self) -> str:
        """Byte-identity fingerprint of the merged aggregate."""
        return self.aggregate.digest()

    def provenance(self) -> dict:
        """Metadata identifying the run lineage that produced the bytes."""
        return {"trace_id": self.trace_id}

    def summary(self) -> dict:
        """Headline numbers for CLI output and manifests."""
        return {
            **self.aggregate.summary(),
            "shards": self.n_shards,
            "resumed_shards": self.resumed_shards,
            "computed_shards": self.computed_shards,
            "digest": self.digest(),
            "trace_id": self.trace_id,
        }


def plan_shards(
    bs_ids: Iterable[int], n_days: int, shard_bs: int = DEFAULT_SHARD_BS
) -> list[Shard]:
    """Partition a campaign into day-major (day, BS-range) shards.

    BS identifiers are sorted first, so the plan — and therefore every
    shard's content key — is independent of the insertion order of the
    arrival-model mapping.  The plan depends only on (bs_ids, n_days,
    shard_bs), never on sampled data.
    """
    ordered = sorted(set(int(b) for b in bs_ids))
    if not ordered:
        raise CampaignError("campaign needs at least one base station")
    if n_days < 1:
        raise CampaignError("n_days must be >= 1")
    if shard_bs < 1:
        raise CampaignError("shard_bs must be >= 1")
    shards: list[Shard] = []
    for day in range(n_days):
        for lo in range(0, len(ordered), shard_bs):
            shards.append(
                Shard(
                    index=len(shards),
                    day=day,
                    bs_ids=tuple(ordered[lo : lo + shard_bs]),
                )
            )
    return shards


def _shard_arena() -> SessionArena:
    """This worker process's reusable shard arena."""
    arena = _WORKER_STATE.get("arena")
    if arena is None:
        arena = SessionArena(capacity=1 << 16)
        # repro-lint: disable-next-line=P204 -- per-process arena reuse; every sub-chunk resets it before writing
        _WORKER_STATE["arena"] = arena
    return arena


def _run_shard(item: tuple) -> CampaignAggregate:
    """Worker entry point: synthesize one shard, return its aggregate.

    ``item`` carries the shard, a :meth:`TrafficGenerator.restricted`
    sub-generator holding only the shard's own arrival models and the
    run's one built sampler, the root seed and the sketch configuration
    — everything picklable.  Sessions stream through this process's
    reused arena in expectation-bounded sub-chunks and are dropped as
    soon as the sketches absorbed them.
    """
    shard, generator, root_seed, chunk_sessions, precision, hll_seed = item
    aggregate = CampaignAggregate.empty(precision=precision, seed=hll_seed)
    arena = _shard_arena()
    for units in generator.split_units(shard.units(), chunk_sessions):
        arena.reset()
        table = generator.generate_units(units, root_seed, arena=arena)
        aggregate.update_table(table)
    aggregate.count_units(len(shard.bs_ids))
    return aggregate


def _key_constants(mix, bank, root_seed: int, precision: int, hll_seed: int) -> dict:
    """The part of every shard's content key that is fixed for the run.

    Describing the model bank dominates keying, so :func:`_shard_keys`
    derives this once per run and :func:`_shard_key` only adds each
    shard's own facts; :class:`Described` parts are spliced into every
    key as text.
    """
    return {
        "artifact": "campaign-shard-aggregate",
        "format": SKETCH_FORMAT_VERSION,
        "mix": Described(mix.probabilities()),
        "bank": Described(json.loads(bank.to_json())),
        "seed": root_seed,
        "hll": {"precision": precision, "seed": hll_seed},
    }


def _shard_key(
    shard: Shard, arrivals: dict[int, Described], constants: dict
) -> str:
    """Content key of one shard's checkpoint aggregate.

    Derived from the facts that determine the aggregate's bytes: the
    shard's own models (``arrivals`` maps each BS to its model, described
    once per run), the root seed, the unit set and the sketch
    configuration (including the serialization format version), the
    run-wide ones coming from :func:`_key_constants`.  The chunk budget
    is deliberately excluded — chunking cannot change the aggregate, so
    re-running with a different budget still resumes.  Scoping the
    models to the shard's BSs means growing the campaign never
    invalidates already-completed shards.
    """
    return content_key(
        {
            **constants,
            "arrivals": {str(bs_id): arrivals[bs_id] for bs_id in shard.bs_ids},
            "day": shard.day,
            "bs_ids": list(shard.bs_ids),
        }
    )


def _shard_keys(
    generator: TrafficGenerator,
    shards: list[Shard],
    root_seed: int,
    precision: int,
    hll_seed: int,
) -> dict[int, str]:
    """Content keys of every shard's checkpoint, by shard index.

    The bank, the mix and each BS's arrival model are described once for
    all shards and spliced into every key; the descriptions are dropped
    on return, before any checkpoint is read.
    """
    constants = _key_constants(
        generator.mix, generator.bank, root_seed, precision, hll_seed
    )
    arrivals = {
        bs_id: Described(model)
        for bs_id, model in generator.arrival_models.items()
    }
    return {
        shard.index: _shard_key(shard, arrivals, constants) for shard in shards
    }


def _load_checkpoint(path: Path) -> CampaignAggregate:
    """Parse and validate one checkpoint; any defect raises upstream.

    Called inside :meth:`ArtifactCache.fetch`, which converts every
    exception — truncated JSON, wrong format version, misaligned arrays —
    into a :class:`CacheError`, which the driver treats as "recompute
    this shard".
    """
    with open(path, "r", encoding="utf-8") as fh:
        return CampaignAggregate.from_dict(json.load(fh))


def _store_checkpoint(
    cache: ArtifactCache,
    key: str,
    aggregate: CampaignAggregate,
    trace_id: str | None = None,
) -> None:
    """Atomically persist one shard aggregate as canonical JSON.

    With a trace id, the checkpoint rides a ``provenance`` envelope key
    *outside* the aggregate's own serialization:
    :meth:`CampaignAggregate.from_dict` ignores unknown top-level keys,
    so resume, digests and the canonical form are untouched — but any
    spooled checkpoint names the run lineage that produced it.  The
    trace id is itself a pure function of the root seed, so same-seed
    runs still write byte-identical checkpoints.
    """
    document = aggregate.to_dict()
    if trace_id is not None:
        document["provenance"] = {"trace_id": trace_id}
    payload = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    def save(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            fh.write(payload)

    cache.store(CHECKPOINT_KIND, key, CHECKPOINT_SUFFIX, save)


def run_campaign(
    generator: TrafficGenerator,
    n_days: int,
    seed: int | np.integer | np.random.Generator,
    *,
    shard_bs: int = DEFAULT_SHARD_BS,
    chunk_sessions: int = DEFAULT_SHARD_CHUNK_SESSIONS,
    executor: SerialExecutor | ParallelExecutor | None = None,
    cache: ArtifactCache | None = None,
    resume: bool = True,
    telemetry: "Telemetry | None" = None,
    hll_precision: int = DEFAULT_HLL_PRECISION,
    hll_seed: int = DEFAULT_HLL_SEED,
    trace_id: str | None = None,
) -> CampaignResult:
    """Run a sharded campaign and return its merged aggregates.

    Shards are planned day-major over the generator's sorted BS ids
    (:func:`plan_shards`), dispatched across ``executor`` in waves, and
    checkpointed through ``cache`` as they complete.  With ``resume``
    (the default), shards whose checkpoints load and validate are folded
    straight from the cache; missing or corrupt checkpoints are
    recomputed.  ``resume=False`` recomputes everything (refreshing the
    checkpoints).  Serial, parallel and kill-then-resume runs produce
    byte-identical aggregates — same :meth:`CampaignResult.digest`.

    ``chunk_sessions`` bounds each worker's arena by expected session
    count; it shapes memory only, never the result (and is excluded from
    checkpoint keys).

    ``trace_id`` names the run lineage in checkpoints, heartbeats and the
    result; when omitted it is taken from the telemetry (minted by
    ``RunContext``) or derived from the root seed — either way a pure
    function of the seed, so provenance never perturbs byte-identity.
    With telemetry attached, the driver also maintains a live
    ``progress.json`` (atomic rewrite per wave, EWMA rates, ETA) and
    emits ``heartbeat`` events — both strictly observational.
    """
    if chunk_sessions < 1:
        raise CampaignError("chunk_sessions must be >= 1")
    root_seed = coerce_root_seed(seed)
    shards = plan_shards(generator.arrival_models, n_days, shard_bs)
    runner = executor if executor is not None else SerialExecutor()
    obs = telemetry
    if trace_id is None:
        trace_id = getattr(obs, "trace_id", None) or mint_trace_id(root_seed)

    if cache is not None:
        cache.sweep(CHECKPOINT_KIND)
    keys = (
        _shard_keys(generator, shards, root_seed, hll_precision, hll_seed)
        if cache is not None
        else {}
    )
    resumed: dict[int, CampaignAggregate] = {}
    pending: list[Shard] = []
    for shard in shards:
        restored = None
        if (
            cache is not None
            and resume
            and cache.has(CHECKPOINT_KIND, keys[shard.index], CHECKPOINT_SUFFIX)
        ):
            try:
                restored = cache.fetch(
                    CHECKPOINT_KIND,
                    keys[shard.index],
                    CHECKPOINT_SUFFIX,
                    _load_checkpoint,
                )
            except CacheError:
                restored = None  # corrupt or stale: recompute below
        if restored is not None:
            resumed[shard.index] = restored
        else:
            pending.append(shard)

    computed: dict[int, CampaignAggregate] = {}
    wave = max(1, getattr(runner, "jobs", 1))
    n_resumed, n_computed = len(resumed), 0
    total = CampaignAggregate.empty(precision=hll_precision, seed=hll_seed)
    folded = 0
    sessions_done = sum(a.n_sessions for a in resumed.values())
    progress = ProgressTracker(
        obs, total_shards=len(shards), trace_id=trace_id
    )
    wave_number = 0

    def beat() -> None:
        """One progress snapshot + heartbeat for the current state."""
        progress.update(
            n_resumed + n_computed,
            sessions_done,
            wave=wave_number,
            peak_rss_mb=peak_rss_mb(),
        )

    def absorb() -> None:
        """Fold every aggregate already available, in canonical order.

        The fold is streaming: as soon as the next shard (by index) has
        an aggregate — restored or freshly computed — it is merged into
        ``total`` and dropped, so the parent never retains more than one
        dispatch wave of aggregates plus any restored shards still
        waiting behind a pending one.  Merge associativity makes this
        byte-identical to a single fold at the end.
        """
        nonlocal folded
        while folded < len(shards):
            index = shards[folded].index
            if index in resumed:
                total.merge(resumed.pop(index))
            elif index in computed:
                total.merge(computed.pop(index))
            else:
                return
            folded += 1

    def dispatch(batch: list[Shard]) -> None:
        """Run one wave of shards, checkpointing each as it lands."""
        nonlocal n_computed, sessions_done
        items = [
            (
                shard,
                generator.restricted(shard.bs_ids),
                root_seed,
                chunk_sessions,
                hll_precision,
                hll_seed,
            )
            for shard in batch
        ]
        for shard, aggregate in zip(batch, runner.map(_run_shard, items)):
            computed[shard.index] = aggregate
            n_computed += 1
            sessions_done += aggregate.n_sessions
            if cache is not None:
                _store_checkpoint(
                    cache, keys[shard.index], aggregate, trace_id
                )

    def execute() -> None:
        """Dispatch every pending shard, wave by wave, folding as we go."""
        nonlocal wave_number
        absorb()  # leading run of restored shards
        if progress.enabled:
            beat()  # wave 0: surface the resumed state immediately
        for lo in range(0, len(pending), wave):
            wave_number += 1
            dispatch(pending[lo : lo + wave])
            absorb()
            if progress.enabled:
                beat()

    if obs:
        with obs.span(
            "campaign",
            kind="campaign",
            attrs={
                "shards": len(shards),
                "resumed": len(resumed),
                "days": n_days,
                "bs": len(generator.arrival_models),
            },
        ) as span:
            execute()
            span.attrs["computed"] = n_computed
    else:
        execute()
    absorb()  # trailing run of restored shards

    if obs:
        obs.metrics.counter("campaign.shards").inc(len(shards))
        obs.metrics.counter("campaign.shards_resumed").inc(n_resumed)
        obs.metrics.counter("campaign.shards_computed").inc(n_computed)
        obs.metrics.counter("campaign.sessions").inc(total.n_sessions)
        obs.metrics.gauge("campaign.units").set(total.n_units)
        obs.metrics.gauge("campaign.distinct_estimate").set(
            round(total.distinct_sessions(), 1)
        )

    return CampaignResult(
        aggregate=total,
        n_shards=len(shards),
        resumed_shards=n_resumed,
        computed_shards=n_computed,
        root_seed=root_seed,
        trace_id=trace_id,
    )
