"""Campaign workloads: one ``run_campaign`` pass per timed operation.

All three run :class:`~repro.pipeline.executors.SerialExecutor` in this
process; the generator recipe is ``benchmarks/bench_campaign.py``'s
``build_generator``.  The workload seed is the campaign's root seed.

Set-up, repeated :data:`SETUP_REPEATS` times (``setup_s`` is the
median), contains:

* ``campaign-dense``: ``build_generator`` (simulate + fit) and one
  untimed warm-up pass (fills the fused-table cache, grows the arena);
* ``campaign-sparse``: ``build_generator`` and one warm-up pass that
  writes every checkpoint into a fresh directory;
* ``campaign-resume``: ``build_generator``, a fresh checkpoint directory,
  the pass that writes every checkpoint, and one warm-up restoring pass.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

from . import common

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Timed passes per run, at least (the run also lasts ``--seconds``).
MIN_PASSES = 3


@dataclass(frozen=True)
class Config:
    n_bs: int
    n_days: int
    rate_scale: float
    checkpoints: bool  # keep per-shard checkpoints in an ArtifactCache
    resume: bool  # timed pass restores every shard from the checkpoints

    @property
    def footprint(self) -> str:
        """Key of the pinned digests: the campaign, whatever the cache does."""
        return f"{self.n_bs}bs-{self.n_days}d-rate{self.rate_scale:g}"


#: Footprints: dense = paper-decile peak rates, few BSs, one day;
#: sparse/resume = many quiet BSs over several days at the default
#: shard size (64 BS), so per-unit and per-shard costs dominate.
CONFIGS = {
    "campaign-dense": Config(640, 1, 1.0, False, False),
    "campaign-sparse": Config(4800, 3, 0.01, True, False),
    "campaign-resume": Config(4800, 3, 0.01, True, True),
}

#: Spans below the pass that only frame work (excluded from coverage).
STRUCTURAL = {"executor.map"}


class Campaign:
    """One campaign workload's set-up state and pass."""

    def __init__(self, workload: str, seed: int, workdir):
        self.config = CONFIGS[workload]
        self.seed = seed
        self.workdir = workdir
        self.generator = None
        self.cache = None
        self.reference: str | None = None
        self._cache_dirs = 0

    # -- set-up -----------------------------------------------------------
    def setup(self) -> float:
        """One full set-up; returns its seconds."""
        from benchmarks.bench_campaign import build_generator

        start = time.perf_counter()
        self.generator = build_generator(
            self.config.n_bs, self.config.rate_scale
        )
        if self.config.checkpoints:
            self._fresh_cache()
        if self.config.resume:
            written = self._run(resume=False)
            self.reference = written.digest()
        warm = self._run(resume=self.config.resume)
        elapsed = time.perf_counter() - start
        if self.reference is None:
            self.reference = warm.digest()
        return elapsed

    def _fresh_cache(self) -> None:
        """Point the checkpoint cache at a new, empty directory.

        Writing passes never overwrite a checkpoint: replacing a file by
        rename makes some file systems flush it, which would time the
        disk instead of the program.  The previous directory is removed.
        """
        from repro.io.cache import ArtifactCache

        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
        self._cache_dirs += 1
        self.cache = ArtifactCache(
            common.fresh_dir(self.workdir / f"cache-{self._cache_dirs}")
        )

    # -- the timed operation ----------------------------------------------
    def _run(self, resume: bool):
        from repro.campaign import run_campaign

        return run_campaign(
            self.generator, self.config.n_days, self.seed,
            cache=self.cache, resume=resume,
        )

    def one_pass(self):
        """Time one pass; returns (seconds, result)."""
        if self.config.checkpoints and not self.config.resume:
            self._fresh_cache()
        start = time.perf_counter()
        result = self._run(self.config.resume)
        return time.perf_counter() - start, result

    def check(self, result, pinned: str | None) -> list[str]:
        """Output checks of one pass; returns the failures."""
        problems = []
        digest = result.digest()
        if digest != self.reference:
            problems.append(f"digest {digest} != set-up digest {self.reference}")
        if pinned is not None and digest != pinned:
            problems.append(f"digest {digest} != pinned {pinned}")
        expected_resumed = result.n_shards if self.config.resume else 0
        if result.resumed_shards != expected_resumed:
            problems.append(
                f"{result.resumed_shards}/{result.n_shards} shards resumed, "
                f"expected {expected_resumed}"
            )
        if result.aggregate.n_units != self.config.n_bs * self.config.n_days:
            problems.append(f"aggregate covers {result.aggregate.n_units} units")
        return problems


def install_wrappers(tracer) -> None:
    """Time the public functions of every layer a campaign pass crosses."""
    from repro.campaign.sketches import (
        CampaignAggregate,
        FixedHistogram,
        HyperLogLog,
        Moments,
    )
    import repro.campaign.driver as driver
    import repro.campaign.sketches as sketches
    import repro.core.generator as generator
    import repro.io.cache as cache
    from repro.core.arrivals import ArrivalModel
    from repro.core.model_bank import ModelBank
    from repro.io.cache import ArtifactCache
    from repro.pipeline.executors import SerialExecutor

    tracer.wrap(driver, "run_campaign", "driver.run_campaign")
    tracer.wrap(
        generator.TrafficGenerator, "generate_units", "generator.units",
        {
            "generator.sessions": lambda args, table: len(table),
            "generator.unit_count": lambda args, table: len(args[1]),
        },
    )
    tracer.wrap(generator.BatchSampler, "from_models", "generator.sampler_build")
    tracer.wrap(ArrivalModel, "sample_day", "generator.arrivals")
    tracer.wrap(generator, "unit_seed", "generator.unit_seed")
    tracer.wrap(CampaignAggregate, "update_table", "sketches.fold")
    tracer.wrap(sketches, "session_fingerprints", "sketches.fingerprint")
    tracer.wrap(HyperLogLog, "add_hashes", "sketches.hll")
    tracer.wrap(FixedHistogram, "update", "sketches.histogram")
    tracer.wrap(Moments, "update", "sketches.moments")
    tracer.wrap(CampaignAggregate, "to_dict", "sketches.serialize")
    tracer.wrap(CampaignAggregate, "from_dict", "sketches.parse")
    tracer.wrap(CampaignAggregate, "merge", "sketches.merge")
    tracer.wrap(CampaignAggregate, "digest", "sketches.digest")
    tracer.wrap(cache, "content_key", "driver.content_key")
    tracer.wrap(ModelBank, "to_json", "driver.bank_json")
    tracer.wrap(ArtifactCache, "store", "cache.store")
    tracer.wrap(ArtifactCache, "fetch", "cache.fetch")
    tracer.wrap(ArtifactCache, "has", "cache.has")
    tracer.wrap(SerialExecutor, "map", "executor.map")
