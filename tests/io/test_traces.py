"""Tests for session-trace CSV export/import."""

import gzip

import numpy as np
import pytest

from repro.dataset.records import SERVICE_NAMES, SessionTable
from repro.io.traces import (
    TRACE_COLUMNS,
    TraceError,
    read_trace,
    trace_to_string,
    write_trace,
)


def small_table():
    return SessionTable(
        service_idx=np.array([0, 5, 13]),
        bs_id=np.array([1, 2, 3]),
        day=np.array([0, 0, 1]),
        start_minute=np.array([10, 500, 1400]),
        duration_s=np.array([12.5, 300.0, 60.0]),
        volume_mb=np.array([0.5, 42.0, 7.25]),
        truncated=np.array([False, True, False]),
    )


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert write_trace(small_table(), path) == 3
        restored = read_trace(path)
        original = small_table()
        assert np.array_equal(restored.service_idx, original.service_idx)
        assert np.array_equal(restored.bs_id, original.bs_id)
        assert np.array_equal(restored.truncated, original.truncated)
        assert np.allclose(restored.volume_mb, original.volume_mb, rtol=1e-5)
        assert np.allclose(restored.duration_s, original.duration_s, rtol=1e-5)

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        write_trace(small_table(), path)
        with gzip.open(path, "rt") as handle:
            first = handle.readline().strip()
        assert first == ",".join(TRACE_COLUMNS)
        assert len(read_trace(path)) == 3

    def test_gzip_export_is_byte_deterministic(self, tmp_path):
        # The gzip header must not embed wall-clock time or the output
        # filename: two exports of the same table — whenever they run and
        # whatever they are called — must be comparable with a plain cmp.
        first = tmp_path / "first.csv.gz"
        second = tmp_path / "differently-named.csv.gz"
        write_trace(small_table(), first)
        write_trace(small_table(), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace(SessionTable.empty(), path)
        assert len(read_trace(path)) == 0

    def test_chunked_write_matches_single_chunk(self, tmp_path):
        # The chunked streaming path must produce byte-identical files for
        # any chunk size, including chunks smaller than the table.
        whole = tmp_path / "whole.csv"
        chunked = tmp_path / "chunked.csv"
        write_trace(small_table(), whole)
        assert write_trace(small_table(), chunked, chunk_rows=2) == 3
        assert whole.read_bytes() == chunked.read_bytes()

    def test_chunked_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(small_table(), path, chunk_rows=1)
        restored = read_trace(path)
        original = small_table()
        assert len(restored) == 3
        assert np.array_equal(restored.service_idx, original.service_idx)
        assert np.allclose(restored.volume_mb, original.volume_mb, rtol=1e-5)

    @pytest.mark.parametrize("name", ["trace.csv", "trace.csv.gz"])
    def test_list_of_chunks_matches_whole_table(self, tmp_path, name):
        # Streamed export: the bytes depend only on the concatenated rows,
        # never on how they were split into chunks (empty ones included).
        table = small_table()
        first, rest = np.arange(3) < 1, np.arange(3) >= 1
        chunks = [
            table.select(first), SessionTable.empty(), table.select(rest),
            SessionTable.empty(),
        ]
        whole, chunked = tmp_path / f"whole-{name}", tmp_path / f"chunked-{name}"
        assert write_trace(table, whole) == 3
        assert write_trace(iter(chunks), chunked, chunk_rows=1) == 3
        assert whole.read_bytes() == chunked.read_bytes()

    def test_invalid_chunk_size_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            write_trace(small_table(), tmp_path / "x.csv", chunk_rows=0)

    def test_campaign_subset_round_trip(self, campaign, tmp_path):
        sub = campaign.select(campaign.bs_id == 0)
        path = tmp_path / "bs0.csv.gz"
        write_trace(sub, path)
        restored = read_trace(path)
        assert len(restored) == len(sub)
        assert restored.total_volume_mb() == pytest.approx(
            sub.total_volume_mb(), rel=1e-4
        )


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            read_trace(tmp_path / "absent.csv")

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_unknown_service(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(TRACE_COLUMNS)
            + "\nNotAnApp,0,0,0,10.0,1.0,0\n"
        )
        with pytest.raises(TraceError):
            read_trace(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(TRACE_COLUMNS) + f"\n{SERVICE_NAMES[0]},0,0,0,oops,1.0,0\n"
        )
        with pytest.raises(TraceError):
            read_trace(path)


class TestStringRendering:
    def test_header_and_rows(self):
        text = trace_to_string(small_table())
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 4
        assert lines[1].startswith(SERVICE_NAMES[0])
