"""Tests for the content-keyed artifact cache."""

import dataclasses
import enum
import os

import numpy as np
import pytest

from repro.dataset.records import SessionTable
from repro.dataset.simulator import SimulationConfig
from repro.io.cache import (
    CACHE_DIR_ENV,
    TMP_PREFIX,
    ArtifactCache,
    CacheError,
    Described,
    content_key,
    default_cache_root,
    describe,
    load_table,
    save_table,
)

from ..conftest import reaped_pid


class _Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class _Cfg:
    n: int
    label: str


class TestDescribe:
    def test_primitives_pass_through(self):
        assert describe(None) is None
        assert describe(3) == 3
        assert describe(1.5) == 1.5
        assert describe("x") == "x"
        assert describe(True) is True

    def test_dataclass_carries_type_name(self):
        described = describe(_Cfg(n=2, label="a"))
        assert described == {"n": 2, "label": "a", "__type__": "_Cfg"}

    def test_enum_and_numpy(self):
        assert describe(_Colour.RED) == "red"
        assert describe(np.int64(7)) == 7
        assert describe(np.array([1, 2])) == [1, 2]

    def test_nested_containers(self):
        assert describe({"a": (1, [2.0, "x"])}) == {"a": [1, [2.0, "x"]]}

    def test_unsupported_type_rejected(self):
        with pytest.raises(CacheError):
            describe(object())


class TestContentKey:
    def test_stable_across_insertion_order(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert content_key({"a": 1}) != content_key({"b": 1})

    def test_described_part_leaves_the_key_unchanged(self):
        part = {"cfg": _Cfg(n=2, label="a"), "arr": np.arange(3), 7: (1.5,)}
        wrapped = Described(part)
        assert describe(wrapped) == describe(part)
        assert content_key({"bank": wrapped, "x": 1}) == content_key(
            {"bank": part, "x": 1}
        )

    def test_key_of_a_mixed_config_is_pinned(self):
        """A literal key: ``content_key`` itself must not drift."""
        config = {
            "cfg": _Cfg(n=2, label="a"),
            "nested": {"b": {"10": 1.5, "9": [True, None]}, "a": "x"},
            "scalar": np.float32(0.1),
            "array": np.arange(4, dtype=np.int16),
            7: (0.25, "y"),
        }
        assert content_key(config) == "97317024d99dedd085ad"
        wrapped = dict(config, nested=Described(config["nested"]))
        assert content_key(wrapped) == content_key(config)

    def test_simulation_config_keys_differ_by_field(self):
        base = content_key({"sim": SimulationConfig(n_days=1)})
        other = content_key({"sim": SimulationConfig(n_days=2)})
        assert base != other

    def test_key_is_short_hex(self):
        key = content_key({"a": 1})
        assert len(key) == 20
        int(key, 16)  # parses as hexadecimal


class TestArtifactCache:
    def test_store_then_fetch(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.has("kind", "abc", ".txt")
        path = cache.store(
            "kind", "abc", ".txt", lambda p: p.write_text("payload")
        )
        assert path == tmp_path / "kind" / "abc.txt"
        assert cache.has("kind", "abc", ".txt")
        assert cache.fetch("kind", "abc", ".txt", lambda p: p.read_text()) == (
            "payload"
        )

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("kind", "abc", ".txt", lambda p: p.write_text("x"))
        names = [p.name for p in (tmp_path / "kind").iterdir()]
        assert names == ["abc.txt"]

    def test_failed_store_cleans_up(self, tmp_path):
        cache = ArtifactCache(tmp_path)

        def explode(path):
            path.write_text("partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            cache.store("kind", "abc", ".txt", explode)
        assert not cache.has("kind", "abc", ".txt")
        assert list((tmp_path / "kind").iterdir()) == []

    def test_fetch_missing_raises(self, tmp_path):
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path).fetch(
                "kind", "absent", ".txt", lambda p: p.read_text()
            )

    def test_invalid_kind_and_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.path_for("bad/kind", "abc", ".txt")
        with pytest.raises(CacheError):
            cache.path_for("kind", "", ".txt")

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert ArtifactCache().root == tmp_path / "elsewhere"


class TestTempFileSweep:
    """Temporary files of killed writers are swept; live writes are kept."""

    @staticmethod
    def plant(cache, pid, name="abc.txt"):
        """A half-written temporary file as ``store`` names it for ``pid``."""
        path = cache.root / "kind" / f"{TMP_PREFIX}{pid}-1-0-{name}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("partial")
        return path

    def test_dead_writer_swept_live_writer_kept(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        dead = self.plant(cache, reaped_pid())
        live = self.plant(cache, os.getpid())
        assert cache.sweep("kind") == 1
        assert not dead.exists()
        assert live.exists()

    def test_names_without_a_pid_are_kept(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        kept = [self.plant(cache, pid) for pid in ("x", "0", "")]
        assert cache.sweep("kind") == 0
        assert all(path.exists() for path in kept)

    def test_missing_kind_is_empty(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.sweep("kind") == 0
        assert cache.artifacts("kind", ".txt") == []

    def test_artifacts_exclude_writes_in_flight(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stored = [
            cache.store("kind", key, ".txt", lambda p: p.write_text("x"))
            for key in ("b", "a")
        ]
        self.plant(cache, os.getpid(), name="c.txt")
        assert cache.artifacts("kind", ".txt") == sorted(stored)


class TestTablePersistence:
    def _table(self):
        return SessionTable(
            service_idx=np.array([0, 5, 13], dtype=np.int16),
            bs_id=np.array([1, 2, 3]),
            day=np.array([0, 0, 1]),
            start_minute=np.array([10, 500, 1400]),
            duration_s=np.array([12.5, 300.0, 60.0]),
            volume_mb=np.array([0.5, 42.0, 7.25]),
            truncated=np.array([False, True, False]),
        )

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "table.npz"
        original = self._table()
        save_table(path, original)
        restored = load_table(path)
        for column in SessionTable.COLUMNS:
            assert np.array_equal(
                getattr(restored, column), getattr(original, column)
            )

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_table(path, SessionTable.empty())
        assert len(load_table(path)) == 0

    def test_unreadable_file_raises(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CacheError):
            load_table(path)


class TestCorruptionRecovery:
    """Corrupted cache entries must lead to recomputation, never a crash."""

    def _table(self, n=4):
        rng = np.random.default_rng(0)
        return SessionTable(
            service_idx=np.arange(n, dtype=np.int16) % 10,
            bs_id=np.arange(n),
            day=np.zeros(n, dtype=int),
            start_minute=rng.integers(0, 1440, n),
            duration_s=rng.uniform(1.0, 100.0, n),
            volume_mb=rng.uniform(0.1, 10.0, n),
            truncated=np.zeros(n, dtype=bool),
        )

    def test_truncated_archive_raises_cache_error(self, tmp_path):
        path = tmp_path / "table.npz"
        save_table(path, self._table())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CacheError):
            load_table(path)

    def test_wrong_key_archive_raises_cache_error(self, tmp_path):
        # A valid npz written under the right cache path but with the wrong
        # arrays inside — e.g. produced by an older, incompatible layout.
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("campaign", "deadbeef", ".npz")
        path.parent.mkdir(parents=True)
        np.savez(path, wrong=np.arange(3), keys=np.arange(3))
        with pytest.raises(CacheError):
            cache.fetch("campaign", "deadbeef", ".npz", load_table)

    def test_pipeline_recomputes_over_corrupt_entry(self, tmp_path):
        """A poisoned cache entry is silently recomputed and overwritten."""
        from repro.pipeline.context import RunContext
        from repro.pipeline.stages import ArtifactSpec, Pipeline, Stage

        table = self._table()
        spec = ArtifactSpec(
            kind="campaign",
            suffix=".npz",
            save=save_table,
            load=load_table,
            key_parts=lambda ctx, artifacts: {"seed": ctx.seed},
        )
        pipeline = Pipeline(
            [Stage("make", "table", lambda ctx, artifacts: table, spec=spec)]
        )
        ctx = RunContext(seed=0, cache=ArtifactCache(tmp_path))

        first = pipeline.run(ctx)
        assert first.event("make").status == "computed"
        key = first.event("make").key
        assert pipeline.run(ctx).event("make").status == "cached"

        # Poison the stored artifact in place; the next run must recompute
        # instead of crashing, and must heal the cache for the run after.
        cached_path = ctx.cache.path_for("campaign", key, ".npz")
        cached_path.write_bytes(b"garbage")
        healed = pipeline.run(ctx)
        assert healed.event("make").status == "computed"
        assert len(healed.artifact("table")) == len(table)
        assert pipeline.run(ctx).event("make").status == "cached"

    def test_concurrent_writers_of_one_key_never_collide(self, tmp_path):
        import threading

        cache = ArtifactCache(tmp_path)
        table = self._table(n=50)
        n_writers = 8
        barrier = threading.Barrier(n_writers)
        errors = []

        def write():
            try:
                barrier.wait()
                for _ in range(5):
                    cache.store(
                        "campaign", "samekey", ".npz",
                        lambda p: save_table(p, table),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(n_writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # The surviving artifact is complete and valid, and no temporary
        # file escaped its writer.
        restored = cache.fetch("campaign", "samekey", ".npz", load_table)
        assert len(restored) == len(table)
        leftovers = [
            p.name
            for p in (tmp_path / "campaign").iterdir()
            if p.name.startswith(TMP_PREFIX)
        ]
        assert leftovers == []
