"""Session-trace export/import: CSV interchange with external tools.

Session-level models can "inform new traffic generators for modern network
simulators" (Section 1, citing the ns-3 NGMN work).  The practical bridge
is a trace file: this module round-trips a
:class:`~repro.dataset.records.SessionTable` through a plain CSV (optionally
gzip-compressed), one row per transport session, with a header carrying
the column schema.
"""

from __future__ import annotations

import csv
import gzip
import io
from pathlib import Path
from typing import Iterable

import numpy as np

from ..dataset.records import SERVICE_INDEX, SERVICE_NAMES, SessionTable

#: Column order of the trace format.
TRACE_COLUMNS = (
    "service",
    "bs_id",
    "day",
    "start_minute",
    "duration_s",
    "volume_mb",
    "truncated",
)


class TraceError(ValueError):
    """Raised on malformed trace files."""


class _DeterministicGzipWriter(io.TextIOWrapper):
    """Text writer over gzip with a pinned header (mtime 0, no filename).

    The stock ``gzip.open`` embeds the wall-clock time and output filename
    in the stream header, so two exports of the same campaign differ at
    the byte level.  Pinning both makes same-seed traces comparable with a
    plain ``cmp``.
    """

    def __init__(self, path: Path):
        self._raw = open(path, "wb")
        stream = gzip.GzipFile(
            filename="", fileobj=self._raw, mode="wb", mtime=0
        )
        super().__init__(stream, encoding="utf-8", newline="")

    def close(self) -> None:
        """Flush and close the gzip stream and the underlying file."""
        try:
            super().close()
        finally:
            self._raw.close()


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        if mode == "w":
            return _DeterministicGzipWriter(path)
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


#: Rows formatted and flushed per chunk during export.
WRITE_CHUNK_ROWS = 100_000

_SERVICE_NAME_ARRAY = np.asarray(SERVICE_NAMES, dtype=object)


def write_trace(
    tables: SessionTable | Iterable[SessionTable],
    path: str | Path,
    chunk_rows: int = WRITE_CHUNK_ROWS,
) -> int:
    """Write session rows as CSV (gzip if the path ends in ``.gz``).

    ``tables`` is one table or an iterable of tables — e.g. the chunks of
    a streamed campaign, each consumed before the next is drawn — whose
    rows are appended in order; the file's bytes depend only on the
    concatenated rows, never on how they were split.  Returns the number
    of rows written.  Services are stored by name, so traces stay
    readable and robust to catalog reordering.  Rows are rendered and
    flushed in chunks of ``chunk_rows``, and only one chunk of formatted
    strings is ever held in memory, so export memory stays bounded
    regardless of campaign size.  Formatting runs at about 75k rows/s
    (3.29M rows took 43.5 s on a 2-vCPU host), so it, not generation,
    dominates ``generate --trace``.
    """
    if chunk_rows < 1:
        raise TraceError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if isinstance(tables, SessionTable):
        tables = (tables,)
    path = Path(path)
    rows = 0
    with _open_text(path, "w") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\r\n")
        for table in tables:
            for lo in range(0, len(table), chunk_rows):
                hi = min(lo + chunk_rows, len(table))
                block = [
                    _SERVICE_NAME_ARRAY[table.service_idx[lo:hi]],
                    table.bs_id[lo:hi].astype(str),
                    table.day[lo:hi].astype(str),
                    table.start_minute[lo:hi].astype(str),
                    np.char.mod("%.3f", table.duration_s[lo:hi].astype(float)),
                    np.char.mod("%.6f", table.volume_mb[lo:hi].astype(float)),
                    table.truncated[lo:hi].astype(int).astype(str),
                ]
                lines = [",".join(row) for row in zip(*block)]
                handle.write("\r\n".join(lines) + "\r\n")
            rows += len(table)
    return rows


def read_trace(path: str | Path) -> SessionTable:
    """Read a trace written by :func:`write_trace` back into a table."""
    path = Path(path)
    try:
        with _open_text(path, "r") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceError("trace file is empty") from None
            if tuple(header) != TRACE_COLUMNS:
                raise TraceError(
                    f"unexpected trace header {header!r}; "
                    f"expected {list(TRACE_COLUMNS)}"
                )
            rows = list(reader)
    except OSError as exc:
        raise TraceError(f"cannot read trace: {exc}") from exc

    if not rows:
        return SessionTable.empty()

    try:
        service_idx = np.array(
            [SERVICE_INDEX[row[0]] for row in rows], dtype=np.int16
        )
    except KeyError as exc:
        raise TraceError(f"unknown service in trace: {exc}") from exc
    try:
        return SessionTable(
            service_idx=service_idx,
            bs_id=np.array([int(row[1]) for row in rows]),
            day=np.array([int(row[2]) for row in rows]),
            start_minute=np.array([int(row[3]) for row in rows]),
            duration_s=np.array([float(row[4]) for row in rows]),
            volume_mb=np.array([float(row[5]) for row in rows]),
            truncated=np.array([bool(int(row[6])) for row in rows]),
        )
    except (IndexError, ValueError) as exc:
        raise TraceError(f"malformed trace row: {exc}") from exc


def trace_to_string(table: SessionTable) -> str:
    """Render a (small) table as an in-memory CSV string."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(TRACE_COLUMNS)
    for record in table.rows():
        writer.writerow(
            [
                record.service,
                record.bs_id,
                record.day,
                record.start_minute,
                f"{record.duration_s:.3f}",
                f"{record.volume_mb:.6f}",
                int(record.truncated),
            ]
        )
    return buffer.getvalue()
