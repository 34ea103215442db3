"""Campaign resume under faults: killed driver, corrupt checkpoints.

The artifact cache's kill and torn-write recovery, tested where the
cache still holds computed state: a driver process killed mid-campaign
leaves a prefix of valid per-shard checkpoints behind; a torn or
tampered checkpoint must be detected and recomputed, never trusted.  In every scenario the resumed campaign's
merged aggregate must be **byte-identical** (same digest) to an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import plan_shards, run_campaign
from repro.campaign.driver import CHECKPOINT_KIND, CHECKPOINT_SUFFIX
from repro.campaign.sketches import DEFAULT_HLL_SEED, SKETCH_FORMAT_VERSION
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.core.model_bank import ModelBank
from repro.io.cache import TMP_PREFIX, ArtifactCache, content_key
from repro.io.params import save_release

from ..conftest import reaped_pid

SEED = 11
DAYS = 1
N_BS = 10
PRECISION = 10

#: Arrival model every campaign in this module runs under.
ARRIVAL = dict(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)

#: Subprocess driver: same generator recipe as :func:`generator`, with an
#: artificial per-shard delay so the parent can reliably kill it after the
#: first checkpoint lands but before the campaign completes.
_CHILD_SCRIPT = """
import sys, time
import repro.campaign.driver as driver
from repro.campaign import run_campaign
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.io.cache import ArtifactCache
from repro.io.params import load_release

release, cache_dir = sys.argv[1], sys.argv[2]
bank, _ = load_release(release)
arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
mix = ServiceMix.from_table1().restricted_to(bank.services())
generator = TrafficGenerator({{bs: arrival for bs in range({n_bs})}}, mix, bank)

_real = driver._run_shard
def _slowed(item):
    time.sleep(0.2)
    return _real(item)
driver._run_shard = _slowed

run_campaign(
    generator, {days}, {seed}, shard_bs=1,
    cache=ArtifactCache(cache_dir), hll_precision={precision},
)
"""


@pytest.fixture(scope="module")
def generator(bank):
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator(
        {bs: ArrivalModel(**ARRIVAL) for bs in range(N_BS)}, mix, bank
    )


@pytest.fixture(scope="module")
def release_file(bank, tmp_path_factory):
    """The fitted bank on disk, for the killed subprocess to load."""
    path = tmp_path_factory.mktemp("release") / "release.json"
    save_release(path, bank)
    return path


@pytest.fixture(scope="module")
def baseline_digest(generator):
    """Digest of an uninterrupted run: the byte-identity reference."""
    return run_campaign(
        generator, DAYS, SEED, shard_bs=1, hll_precision=PRECISION
    ).digest()


def checkpoint_paths(cache_root) -> list:
    """Every complete per-shard checkpoint in the cache, sorted."""
    return ArtifactCache(cache_root).artifacts(CHECKPOINT_KIND, CHECKPOINT_SUFFIX)


def temp_files(cache_root) -> list:
    """The checkpoint writes in flight, or left by killed writers."""
    return sorted((cache_root / CHECKPOINT_KIND).glob(f"{TMP_PREFIX}*"))


def resume(generator, cache: ArtifactCache):
    return run_campaign(
        generator, DAYS, SEED, shard_bs=1, cache=cache, hll_precision=PRECISION
    )


class TestKilledDriver:
    def test_killed_mid_campaign_resumes_byte_identical(
        self, generator, release_file, baseline_digest, tmp_path
    ):
        """SIGKILL the driver after its first checkpoint, then resume."""
        script = _CHILD_SCRIPT.format(
            n_bs=N_BS, days=DAYS, seed=SEED, precision=PRECISION
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(release_file), str(tmp_path)],
            env=env,
            cwd=os.getcwd(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if checkpoint_paths(tmp_path) or child.poll() is not None:
                    break
                time.sleep(0.01)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup guard
                child.kill()
                child.wait(timeout=30)
        survived = checkpoint_paths(tmp_path)
        assert survived, "child died before writing any checkpoint"
        assert len(survived) < N_BS, "child finished before the kill"

        result = resume(generator, ArtifactCache(tmp_path))
        assert result.resumed_shards == len(survived)
        assert result.computed_shards == N_BS - len(survived)
        assert result.digest() == baseline_digest
        assert len(checkpoint_paths(tmp_path)) == N_BS
        assert temp_files(tmp_path) == []  # the killed child's, if any, swept

    def test_resume_sweeps_dead_writes_and_keeps_live_ones(
        self, generator, baseline_digest, tmp_path
    ):
        """A live writer's temp file survives the sweep; the run resumes."""
        cache = ArtifactCache(tmp_path)
        assert resume(generator, cache).computed_shards == N_BS
        victim = checkpoint_paths(tmp_path)[0]
        half = victim.read_bytes()[:100]
        shard_dir = tmp_path / CHECKPOINT_KIND
        in_flight = shard_dir / f"{TMP_PREFIX}{os.getpid()}-1-0-{victim.name}"
        debris = shard_dir / f"{TMP_PREFIX}{reaped_pid()}-1-0-{victim.name}"
        in_flight.write_bytes(half)
        debris.write_bytes(half)

        result = resume(generator, cache)
        assert result.resumed_shards == N_BS
        assert result.digest() == baseline_digest
        assert temp_files(tmp_path) == [in_flight]


class TestCorruptCheckpoints:
    @pytest.fixture()
    def completed_cache(self, generator, tmp_path):
        """A cache holding every shard checkpoint of a finished run."""
        cache = ArtifactCache(tmp_path)
        result = resume(generator, cache)
        assert result.computed_shards == N_BS
        return cache

    def test_torn_checkpoint_recomputed_byte_identical(
        self, generator, baseline_digest, completed_cache, tmp_path
    ):
        """A truncated checkpoint is detected, recomputed and rewritten."""
        victim = checkpoint_paths(tmp_path)[2]
        original = victim.read_bytes()
        victim.write_bytes(original[: len(original) // 2])

        result = resume(generator, completed_cache)
        assert result.resumed_shards == N_BS - 1
        assert result.computed_shards == 1
        assert result.digest() == baseline_digest
        assert victim.read_bytes() == original  # rebuilt, not trusted as-is

    def test_tampered_format_version_recomputed(
        self, generator, baseline_digest, completed_cache, tmp_path
    ):
        """Valid JSON of a foreign format version is rejected on load."""
        victim = checkpoint_paths(tmp_path)[0]
        original = victim.read_text(encoding="utf-8")
        victim.write_text(
            original.replace('"format":1', '"format":999'), encoding="utf-8"
        )

        result = resume(generator, completed_cache)
        assert result.computed_shards == 1
        assert result.digest() == baseline_digest
        assert victim.read_text(encoding="utf-8") == original

    def test_intact_checkpoints_not_rebuilt_on_resume(
        self, generator, completed_cache, tmp_path
    ):
        """Resume touches only damaged checkpoints, never intact ones."""
        paths = checkpoint_paths(tmp_path)
        victim, intact = paths[-1], paths[:-1]
        stamps = {p: p.stat().st_mtime_ns for p in intact}
        victim.unlink()

        result = resume(generator, completed_cache)
        assert result.computed_shards == 1
        assert victim.exists()
        for path in intact:
            assert path.stat().st_mtime_ns == stamps[path]


class TestChunkBudgetIndependentResume:
    """Regression: checkpoint identity must not depend on the chunk budget.

    ``_shard_key`` deliberately excludes ``chunk_sessions`` — the budget
    bounds worker memory, never the statistics.  A resume under a
    *different* ``--chunk-size`` must therefore hit every checkpoint the
    first run wrote (0 recomputed) and merge to the byte-identical
    digest.  If the budget ever leaks into the cache key or the shard
    aggregation, this test turns that regression into a hard failure.
    """

    @pytest.mark.parametrize("resume_chunk", [777, 999, 10_000])
    def test_resume_with_different_chunk_size_hits_checkpoints(
        self, generator, baseline_digest, tmp_path, resume_chunk
    ):
        cache = ArtifactCache(tmp_path)
        first = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=1,
            cache=cache,
            hll_precision=PRECISION,
            chunk_sessions=10_000,
        )
        assert first.computed_shards == N_BS
        stamps = {
            p: p.stat().st_mtime_ns for p in checkpoint_paths(tmp_path)
        }

        resumed = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=1,
            cache=cache,
            hll_precision=PRECISION,
            chunk_sessions=resume_chunk,
        )
        assert resumed.resumed_shards == N_BS
        assert resumed.computed_shards == 0
        assert resumed.digest() == first.digest() == baseline_digest
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp  # untouched, not rewritten

    def test_chunk_size_never_changes_checkpoint_bytes(
        self, generator, tmp_path
    ):
        """Fresh runs under different budgets write identical checkpoints."""
        digests = {}
        for chunk in (123, 4_567):
            root = tmp_path / f"chunk-{chunk}"
            run_campaign(
                generator,
                DAYS,
                SEED,
                shard_bs=1,
                cache=ArtifactCache(root),
                hll_precision=PRECISION,
                chunk_sessions=chunk,
            )
            digests[chunk] = {
                p.name: p.read_bytes() for p in checkpoint_paths(root)
            }
        assert digests[123] == digests[4_567]


class TestCheckpointKeysStable:
    """Checkpoints written before the per-run key constants were hoisted
    must still resume: every shard key equals the original derivation,
    which serialized the bank and described the whole payload per shard.
    """

    @staticmethod
    def reference_key(shard, generator, root_seed, precision, hll_seed):
        return content_key(
            {
                "artifact": "campaign-shard-aggregate",
                "format": SKETCH_FORMAT_VERSION,
                "mix": generator.mix.probabilities(),
                "bank": json.loads(generator.bank.to_json()),
                "arrivals": {
                    str(bs_id): generator.arrival_models[bs_id]
                    for bs_id in shard.bs_ids
                },
                "day": shard.day,
                "bs_ids": list(shard.bs_ids),
                "seed": root_seed,
                "hll": {"precision": precision, "seed": hll_seed},
            }
        )

    def test_checkpoints_land_under_the_original_keys(
        self, generator, tmp_path
    ):
        days, shard_bs = 2, 3
        run_campaign(
            generator,
            days,
            SEED,
            shard_bs=shard_bs,
            cache=ArtifactCache(tmp_path),
            hll_precision=PRECISION,
        )
        expected = {
            self.reference_key(
                shard, generator, SEED, PRECISION, DEFAULT_HLL_SEED
            )
            + CHECKPOINT_SUFFIX
            for shard in plan_shards(generator.arrival_models, days, shard_bs)
        }
        assert len(expected) == 2 * -(-N_BS // shard_bs)
        assert {p.name for p in checkpoint_paths(tmp_path)} == expected


#: Two services written out literally, so the keys pinned below depend on
#: no fit.
LITERAL_BANK = {
    "Facebook": {
        "service": "Facebook",
        "volume": {
            "mu": 0.5,
            "sigma": 0.625,
            "peaks": [
                {"k": 0.0625, "mu": -0.25, "sigma": 0.03125,
                 "u_lo": -0.375, "u_hi": -0.125},
            ],
        },
        "duration": {"alpha": 0.25, "beta": 0.5, "r2": 0.875},
    },
    "Youtube": {
        "service": "Youtube",
        "volume": {"mu": 1.25, "sigma": 0.75},
        "duration": {"alpha": 0.5, "beta": 0.625, "r2": 0.9375},
    },
}


class TestCheckpointKeysPinned:
    """Shard keys as literal hex strings, computed before key splicing.

    :class:`TestCheckpointKeysStable` derives its reference through
    ``content_key``, so a change to ``content_key`` itself would move both
    sides at once.  These pins do not move: checkpoints written by any
    earlier run of this campaign must keep resuming.  The third shard
    holds BSs 8-11, where the string order of the ``arrivals`` keys
    (``"10"``, ``"11"``, ``"8"``, ``"9"``) differs from the numeric order.
    """

    PINNED = {
        "0bafc8c36ab087ba6ce6",
        "a3fb127b9d9cbae9d206",
        "e7757838aff71a91a857",
    }

    def test_keys_of_a_literal_campaign(self, tmp_path):
        bank = ModelBank.from_json(json.dumps(LITERAL_BANK))
        mix = ServiceMix({"Facebook": 0.75, "Youtube": 0.25})
        generator = TrafficGenerator(
            {
                bs: ArrivalModel(
                    peak_mu=0.25 + bs / 8, peak_sigma=0.125,
                    night_scale=0.0625 * (1 + bs % 3),
                )
                for bs in range(12)
            },
            mix,
            bank,
        )
        run_campaign(
            generator, 1, SEED, shard_bs=4, cache=ArtifactCache(tmp_path),
            hll_precision=PRECISION,
        )
        assert {p.name for p in checkpoint_paths(tmp_path)} == {
            key + CHECKPOINT_SUFFIX for key in self.PINNED
        }
