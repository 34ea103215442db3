"""Property-based tests of the mergeable campaign sketches.

The sketches' whole value is one invariant: **merge is bit-exactly
associative and commutative**, and aggregating a table equals aggregating
any partition of it in any order.  Hypothesis drives random session
batches, partitions and merge orders through the digest (the SHA-256 of
the canonical serialized form), so "equal" always means byte-identical —
never approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.histogram import LOG_GRID
from repro.campaign.sketches import (
    DEFAULT_HLL_SEED,
    CampaignAggregate,
    FixedHistogram,
    HyperLogLog,
    Moments,
    SketchError,
    _bit_length,
    _exact_sum,
    _exact_weighted_bincount,
    merge_all,
    session_fingerprints,
)
from repro.dataset.aggregation import DURATION_EDGES
from repro.dataset.records import SERVICE_NAMES, SessionTable

#: Small HLL precision for property tests: 256 registers keep each
#: example fast while exercising exactly the same code paths.
P = 8


@st.composite
def session_tables(draw, max_rows: int = 40) -> SessionTable:
    """Random schema-exact session tables, including the empty one."""
    n = draw(st.integers(min_value=0, max_value=max_rows))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return SessionTable(
        np.asarray(
            column(st.integers(0, len(SERVICE_NAMES) - 1)), dtype=np.int16
        ),
        np.asarray(column(st.integers(0, 9)), dtype=np.int32),
        np.asarray(column(st.integers(0, 6)), dtype=np.int16),
        np.asarray(column(st.integers(0, 1439)), dtype=np.int16),
        np.asarray(
            column(st.floats(1.0, 86400.0, width=32)), dtype=np.float32
        ),
        np.asarray(
            column(st.floats(2.0**-13, 8192.0, width=32)), dtype=np.float32
        ),
        np.asarray(column(st.booleans()), dtype=bool),
    )


def aggregate_of(table: SessionTable) -> CampaignAggregate:
    """One-unit aggregate of a table at the test precision."""
    return CampaignAggregate.from_table(table, n_units=1, precision=P)


class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(session_tables(), session_tables(), session_tables())
    def test_merge_is_associative(self, ta, tb, tc):
        a, b, c = aggregate_of(ta), aggregate_of(tb), aggregate_of(tc)
        left = aggregate_of(ta).merge(aggregate_of(tb)).merge(c)
        right = a.merge(aggregate_of(tb).merge(aggregate_of(tc)))
        assert left.digest() == right.digest()

    @settings(max_examples=40, deadline=None)
    @given(session_tables(), session_tables())
    def test_merge_is_commutative(self, ta, tb):
        ab = aggregate_of(ta).merge(aggregate_of(tb))
        ba = aggregate_of(tb).merge(aggregate_of(ta))
        assert ab.digest() == ba.digest()

    @settings(max_examples=40, deadline=None)
    @given(
        session_tables(max_rows=60),
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
    )
    def test_any_shard_order_equals_single_pass(self, table, order, k):
        """Sharded merge == one-pass aggregate over the concatenation."""
        n = len(table)
        cuts = sorted(
            np.random.default_rng(order).integers(0, n + 1, size=k - 1)
        )
        bounds = [0, *cuts, n]
        idx = np.arange(n)
        parts = [
            SessionTable(
                *(
                    getattr(table, col)[idx[lo:hi]]
                    for col in SessionTable.COLUMNS
                ),
                validate=False,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        shards = [
            CampaignAggregate.from_table(p, n_units=0, precision=P)
            for p in parts
        ]
        permuted = list(
            np.random.default_rng(order + 1).permutation(len(shards))
        )
        merged = merge_all(
            (shards[i] for i in permuted), precision=P
        ).count_units(1)
        assert merged.digest() == aggregate_of(table).digest()

    @settings(max_examples=40, deadline=None)
    @given(session_tables())
    def test_empty_aggregate_is_merge_identity(self, table):
        agg = aggregate_of(table)
        before = agg.digest()
        agg.merge(CampaignAggregate.empty(precision=P))
        assert agg.digest() == before


class TestSerializationRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(session_tables())
    def test_round_trip_is_bit_exact(self, table):
        agg = aggregate_of(table)
        clone = CampaignAggregate.from_dict(agg.to_dict())
        assert clone.digest() == agg.digest()
        assert clone.canonical_json() == agg.canonical_json()

    @settings(max_examples=25, deadline=None)
    @given(session_tables(), session_tables())
    def test_merge_of_deserialized_equals_merge_of_originals(self, ta, tb):
        direct = aggregate_of(ta).merge(aggregate_of(tb))
        via_json = CampaignAggregate.from_dict(
            aggregate_of(ta).to_dict()
        ).merge(CampaignAggregate.from_dict(aggregate_of(tb).to_dict()))
        assert via_json.digest() == direct.digest()

    def test_wrong_format_version_rejected(self):
        payload = CampaignAggregate.empty(precision=P).to_dict()
        payload["format"] = 999
        with pytest.raises(SketchError, match="format"):
            CampaignAggregate.from_dict(payload)

    def test_corrupt_payload_rejected(self):
        payload = CampaignAggregate.empty(precision=P).to_dict()
        del payload["minute_sessions"]
        with pytest.raises(SketchError):
            CampaignAggregate.from_dict(payload)


class TestEmptyShardEdgeCase:
    """A zero-session (day, BS) unit must be a valid identity element."""

    def test_empty_table_update_is_identity(self):
        agg = CampaignAggregate.empty(precision=P)
        before = agg.digest()
        agg.update_table(SessionTable.empty())
        assert agg.digest() == before

    def test_derivations_of_empty_are_total(self):
        agg = CampaignAggregate.empty(precision=P)
        agg.count_units(3)  # empty units still cover BS-time
        assert agg.n_sessions == 0
        assert agg.total_volume_mb() == 0.0
        assert agg.day_night_ratio() == 0.0
        assert agg.volume.mean() == 0.0 and agg.volume.variance() == 0.0
        assert agg.duration.mean() == 0.0
        assert agg.distinct_sessions() == 0.0
        for derived in (
            agg.volume_pdf(),
            agg.duration_pdf(),
            agg.circadian_profile(),
            agg.service_session_shares(),
            agg.service_traffic_shares(),
        ):
            assert np.all(np.isfinite(derived))
            assert np.all(derived == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(session_tables())
    def test_merging_empty_units_only_dilutes_rates(self, table):
        """Empty units change per-unit rates but never the counters."""
        agg = aggregate_of(table)
        sessions = agg.n_sessions
        empty = CampaignAggregate.empty(precision=P).count_units(5)
        agg.merge(empty)
        assert agg.n_sessions == sessions
        assert agg.n_units == 6
        assert np.all(np.isfinite(agg.circadian_profile()))


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(2.0**-13, 65536.0, width=32), max_size=50),
        st.lists(st.floats(2.0**-13, 65536.0, width=32), max_size=50),
    )
    def test_split_update_equals_single_update(self, xs, ys):
        both = Moments(20, 6).update(np.asarray(xs + ys, dtype=np.float64))
        split = (
            Moments(20, 6)
            .update(np.asarray(xs, dtype=np.float64))
            .merge(Moments(20, 6).update(np.asarray(ys, dtype=np.float64)))
        )
        assert both.to_dict() == split.to_dict()

    def test_quanta_mismatch_rejected(self):
        with pytest.raises(SketchError, match="quanta"):
            Moments(20, 6).merge(Moments(10, 6))

    def test_mean_variance_track_numpy(self):
        values = np.linspace(0.5, 99.5, 200)
        m = Moments(20, 6).update(values)
        assert m.count == 200
        assert m.mean() == pytest.approx(float(values.mean()), rel=1e-6)
        assert m.variance() == pytest.approx(float(values.var()), rel=1e-3)
        assert m.minimum == 0.5 and m.maximum == 99.5


class TestFixedHistogram:
    def test_grid_mismatch_rejected(self):
        a = FixedHistogram(np.array([0.0, 1.0, 2.0]))
        b = FixedHistogram(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(SketchError, match="grids"):
            a.merge(b)

    def test_out_of_range_clips_into_edge_bins(self):
        h = FixedHistogram(np.array([0.0, 1.0, 2.0]))
        h.update(np.array([-5.0, 0.5, 99.0]))
        assert h.counts.tolist() == [2, 1]
        assert h.total == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0, width=32), min_size=1, max_size=60))
    def test_density_integrates_to_one(self, values):
        h = FixedHistogram(np.linspace(-4.0, 4.0, 17))
        h.update(np.asarray(values, dtype=np.float64))
        integral = float(np.sum(h.density() * np.diff(h.edges)))
        assert integral == pytest.approx(1.0, rel=1e-9)


class TestHyperLogLog:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(500, 20_000))
    def test_estimate_within_standard_error_band(self, offset, n):
        """The estimate stays inside a 4-sigma band of true cardinality."""
        sketch = HyperLogLog(precision=12)
        items = (np.arange(n, dtype=np.uint64) * np.uint64(2**20)) + np.uint64(
            offset
        )
        sketch.add_items(items)
        relative = abs(sketch.estimate() - n) / n
        assert relative <= 4 * sketch.relative_error()

    def test_merge_equals_union(self):
        a, b = HyperLogLog(precision=P), HyperLogLog(precision=P)
        a.add_items(np.arange(0, 3000, dtype=np.uint64))
        b.add_items(np.arange(2000, 5000, dtype=np.uint64))
        union = HyperLogLog(precision=P)
        union.add_items(np.arange(0, 5000, dtype=np.uint64))
        assert np.array_equal(
            a.merge(b).registers, union.registers
        ), "merged registers must equal the union's registers"

    def test_merge_is_idempotent(self):
        a = HyperLogLog(precision=P)
        a.add_items(np.arange(1000, dtype=np.uint64))
        before = a.registers.copy()
        clone = HyperLogLog.from_dict(a.to_dict())
        assert np.array_equal(a.merge(clone).registers, before)

    def test_incompatible_sketches_rejected(self):
        with pytest.raises(SketchError, match="precision"):
            HyperLogLog(precision=8).merge(HyperLogLog(precision=10))
        with pytest.raises(SketchError, match="seed"):
            HyperLogLog(precision=8, seed=1).merge(
                HyperLogLog(precision=8, seed=2)
            )

    def test_seed_changes_registers_not_scale(self):
        items = np.arange(5000, dtype=np.uint64)
        a = HyperLogLog(precision=12, seed=DEFAULT_HLL_SEED).add_items(items)
        b = HyperLogLog(precision=12, seed=999).add_items(items)
        assert not np.array_equal(a.registers, b.registers)
        assert b.estimate() == pytest.approx(5000, rel=4 * b.relative_error())


# ----------------------------------------------------------------------
# Fast paths against obviously-correct references
# ----------------------------------------------------------------------
U64 = (1 << 64) - 1


def reference_splitmix64(value: int) -> int:
    """splitmix64 finalizer on one Python int (mod 2^64)."""
    z = (value + 0x9E3779B97F4A7C15) & U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return z ^ (z >> 31)


def reference_fingerprint(row: tuple, seed: int) -> int:
    """Fingerprint of one session row, column by column on Python ints."""
    h = seed & U64
    for value in row:
        h = reference_splitmix64(h ^ (value & U64))
    return h


def reference_registers(hashes, precision: int, registers) -> np.ndarray:
    """HLL registers after folding hashes in one at a time."""
    out = registers.copy()
    tail_bits = 64 - precision
    for h in (int(x) for x in hashes):
        tail = h & ((1 << tail_bits) - 1)
        rank = tail_bits + 1 - tail.bit_length()
        out[h >> tail_bits] = max(out[h >> tail_bits], rank)
    return out


def reference_bins(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Clipped bin index by binary search (half-open bins)."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


def reference_quanta(values, quantum_log2: int) -> list[int]:
    """Quantized values as Python ints (rint of the power-of-two scaling)."""
    return [int(q) for q in np.rint(np.ldexp(np.asarray(values), quantum_log2))]


def bit_length_cases() -> list[int]:
    """0, every 2^k and 2^k - 1, and the largest uint64."""
    cases = {0, U64}
    for k in range(64):
        cases.update({1 << k, (1 << k) - 1, (1 << k) + 1})
    return sorted(cases)


class TestBitLengthAndRanks:
    def test_bit_length_matches_python_ints(self):
        cases = bit_length_cases()
        got = _bit_length(np.asarray(cases, dtype=np.uint64))
        assert got.tolist() == [c.bit_length() for c in cases]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, U64), min_size=1, max_size=80))
    def test_bit_length_of_random_values(self, values):
        got = _bit_length(np.asarray(values, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("precision", [4, 8, 11, 14, 18])
    def test_registers_match_reference_on_edge_hashes(self, precision):
        """Every tail length, including the all-zero and all-one tails."""
        tail_bits = 64 - precision
        tails = [0, (1 << tail_bits) - 1] + [
            t for k in range(tail_bits) for t in ((1 << k), (1 << k) - 1)
        ]
        buckets = np.arange(len(tails)) % (1 << precision)
        hashes = np.asarray(
            [(int(b) << tail_bits) | t for b, t in zip(buckets, tails)],
            dtype=np.uint64,
        )
        sketch = HyperLogLog(precision=precision).add_hashes(hashes)
        expected = reference_registers(
            hashes, precision, np.zeros(1 << precision, dtype=np.uint8)
        )
        assert sketch.registers.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([4, 8, 14]),
        st.lists(st.integers(0, U64), max_size=60),
        st.lists(st.integers(0, U64), max_size=60),
    )
    def test_prefilled_registers_match_reference(self, precision, first, second):
        """Rows a filled register already covers are dropped, never lost."""
        sketch = HyperLogLog(precision=precision)
        sketch.add_hashes(np.asarray(first, dtype=np.uint64))
        before = sketch.registers.copy()
        sketch.add_hashes(np.asarray(second, dtype=np.uint64))
        expected = reference_registers(second, precision, before)
        assert sketch.registers.tobytes() == expected.tobytes()


class TestFingerprints:
    @settings(max_examples=30, deadline=None)
    @given(session_tables(max_rows=20), st.integers(0, U64))
    def test_fingerprints_match_python_reference(self, table, seed):
        got = session_fingerprints(table, seed)
        rows = zip(
            table.service_idx.tolist(),
            table.bs_id.tolist(),
            table.day.tolist(),
            table.start_minute.tolist(),
            table.duration_s.view(np.uint32).tolist(),
            table.volume_mb.view(np.uint32).tolist(),
            table.truncated.astype(int).tolist(),
        )
        assert got.tolist() == [reference_fingerprint(r, seed) for r in rows]

    def test_negative_integers_sign_extend(self):
        """Integer columns enter the mix as 64-bit two's complement."""
        table = SessionTable(
            np.array([0], dtype=np.int16),
            np.array([-5], dtype=np.int32),
            np.array([-1], dtype=np.int16),
            np.array([0], dtype=np.int16),
            np.array([1.0], dtype=np.float32),
            np.array([1.0], dtype=np.float32),
            np.array([False]),
            validate=False,
        )
        row = (0, -5, -1, 0, 0x3F800000, 0x3F800000, 0)
        assert session_fingerprints(table, 7).tolist() == [
            reference_fingerprint(row, 7)
        ]


def special_values(edges: np.ndarray) -> np.ndarray:
    """Every edge, its float neighbours, infinities, NaN and log10(0)."""
    with np.errstate(divide="ignore"):
        log_zero = np.log10(np.array([0.0]))
    return np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [np.inf, -np.inf, np.nan, 0.0, -0.0, -1.0, 5e-324, 1.7e308],
            log_zero,
        ]
    )


GRIDS = {
    "log-grid": LOG_GRID,
    "duration-edges": DURATION_EDGES,
    "uniform": np.linspace(-4.0, 4.0, 17),
    "irregular": np.array([0.0, 1.0, 3.0, 3.5, 10.0]),
    "one-bin": np.array([2.0, 3.0]),
}


class TestHistogramBins:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_special_values_match_searchsorted(self, name):
        edges = GRIDS[name]
        values = special_values(edges)
        hist = FixedHistogram(edges).update(values)
        expected = np.bincount(
            reference_bins(edges, values), minlength=edges.size - 1
        )
        assert hist.counts.tolist() == expected.tolist()

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_each_value_lands_in_its_reference_bin(self, name):
        """Value by value, so compensating errors cannot cancel out."""
        edges = GRIDS[name]
        for value, bin_index in zip(
            special_values(edges), reference_bins(edges, special_values(edges))
        ):
            counts = FixedHistogram(edges).update(np.array([value])).counts
            assert int(np.argmax(counts)) == bin_index, value

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(GRIDS)),
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True), max_size=60
        ),
        st.lists(st.floats(-6.0, 6.0), max_size=60),
        st.lists(st.floats(0.0, 2e5), max_size=60),
    )
    def test_random_values_match_searchsorted(self, name, wild, logs, durations):
        edges = GRIDS[name]
        values = np.asarray(wild + logs + durations, dtype=np.float64)
        hist = FixedHistogram(edges).update(values)
        expected = np.bincount(
            reference_bins(edges, values), minlength=edges.size - 1
        )
        assert hist.counts.tolist() == expected.tolist()


class TestExactSums:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(2.0**-13, 2.0**40, width=32), max_size=80))
    def test_moment_sums_match_python_ints(self, durations):
        """Durations up to ~1.1e12 s: squared quanta far beyond int64."""
        values = np.asarray(durations, dtype=np.float64)
        m = Moments(10, 6).update(values)
        assert m.total_q == sum(reference_quanta(values, 10))
        assert m.total_sq_q == sum(reference_quanta(np.square(values), 6))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            max_size=60,
        )
    )
    def test_signed_sums_at_any_magnitude(self, values):
        quanta = np.rint(np.asarray(values, dtype=np.float64))
        assert _exact_sum(quanta) == sum(int(q) for q in quanta)

    @pytest.mark.parametrize("negative", [0, 3000])
    def test_int64_overflowing_sum_of_narrow_values(self, negative):
        """Every value fits int64 but their sum does not."""
        big, small = 2**61 + 2**40, -(2**61 - 2**10)
        quanta = np.asarray([big] * 5000 + [small] * negative, dtype=np.float64)
        assert _exact_sum(quanta) == 5000 * big + negative * small

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.floats(0.0, 1e30, allow_nan=False, allow_infinity=False),
            ),
            max_size=80,
        )
    )
    def test_weighted_bincount_matches_python_ints(self, rows):
        index = np.asarray([i for i, _ in rows], dtype=np.intp)
        quanta = np.rint(np.asarray([w for _, w in rows], dtype=np.float64))
        expected = [0] * 5
        for i, q in zip(index, quanta):
            expected[int(i)] += int(q)
        assert _exact_weighted_bincount(index, quanta, 5) == expected

    def test_negative_weights_rejected(self):
        with pytest.raises(SketchError, match=">= 0"):
            _exact_weighted_bincount(
                np.array([0, 1]), np.array([1.0, -1.0]), 2
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(SketchError):
            _exact_sum(np.array([1.0, bad]))
