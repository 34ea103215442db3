"""Columnar container for transport-layer session records.

A simulated campaign easily produces millions of sessions, so records are
stored column-wise in numpy arrays rather than as one object per session.
:class:`SessionTable` is the interchange format between the simulator, the
probe-emulation layer and the aggregation pipeline; :class:`SessionRecord`
is a convenience row view for tests and examples.

The column layout itself lives in one place — :data:`TABLE_SCHEMA`, a
tuple of :class:`ColumnSpec` descriptors — and everything else (table
construction, empty tables, the :class:`SessionArena` buffers, the S301
lint mirror) derives from it.  Generation-scale producers write straight
into a :class:`SessionArena`: one preallocated buffer per column, grown
geometrically, handing out zero-copy slices so the synthesis hot path
never allocates per chunk.  Validation is a separate
:meth:`SessionTable.validate` pass — arena producers construct views in
O(1) and validate once where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .services import all_service_names

#: Canonical service index order used by every :class:`SessionTable`.
SERVICE_NAMES: tuple[str, ...] = tuple(all_service_names())
SERVICE_INDEX: dict[str, int] = {name: i for i, name in enumerate(SERVICE_NAMES)}


class RecordsError(ValueError):
    """Raised when session-table columns are inconsistent."""


@dataclass(frozen=True)
class ColumnSpec:
    """One column of the session-table schema: its name and dtype literal.

    ``dtype`` is kept as the canonical numpy dtype *string* so the schema
    reads as data (and the S301 lint rule can pin call sites against it
    syntactically); :attr:`np_dtype` is the resolved ``np.dtype``.
    """

    name: str
    dtype: str

    @property
    def np_dtype(self) -> np.dtype:
        """The resolved numpy dtype of this column."""
        return np.dtype(self.dtype)


#: The session-table schema — the single source of truth for column names,
#: order and dtypes across the whole stack (tables, arenas, cache, lint).
#: Mirrored (deliberately, as a drift tripwire) by
#: ``repro.lint.structure.SESSION_TABLE_DTYPES``.
TABLE_SCHEMA: tuple[ColumnSpec, ...] = (
    ColumnSpec("service_idx", "int16"),
    ColumnSpec("bs_id", "int32"),
    ColumnSpec("day", "int16"),
    ColumnSpec("start_minute", "int16"),
    ColumnSpec("duration_s", "float32"),
    ColumnSpec("volume_mb", "float32"),
    ColumnSpec("truncated", "bool"),
)

#: Column name → resolved numpy dtype, in schema order.
SCHEMA_DTYPES: dict[str, np.dtype] = {
    spec.name: spec.np_dtype for spec in TABLE_SCHEMA
}

#: Bytes one session occupies across all schema columns.
ROW_BYTES: int = sum(spec.np_dtype.itemsize for spec in TABLE_SCHEMA)

#: Default capacity (sessions) of a fresh :class:`SessionArena`.
DEFAULT_ARENA_CAPACITY = 1 << 20


class SessionArena:
    """Preallocated columnar buffer that session producers write into.

    One contiguous array per schema column, all sharing a session
    capacity.  Producers call :meth:`reserve` to claim the next ``n`` rows
    and fill the returned column slices in place; the arena grows
    geometrically when a reservation does not fit, so amortized writes
    never reallocate.  :meth:`view` wraps the filled region as a zero-copy
    :class:`SessionTable`; :meth:`snapshot` copies it out into an owning
    table.  :meth:`reset` rewinds the write cursor for reuse (buffers are
    kept), which is how chunked generation reuses one allocation across an
    entire campaign.
    """

    def __init__(self, capacity: int = DEFAULT_ARENA_CAPACITY):
        if capacity < 1:
            raise RecordsError("arena capacity must be >= 1")
        self._capacity = int(capacity)
        self._size = 0
        self._columns: dict[str, np.ndarray] = {}
        self._allocate(self._capacity)

    # -- buffer management ---------------------------------------------
    def _allocate(self, capacity: int) -> None:
        """(Re)allocate every column at ``capacity``, preserving content."""
        old = self._columns
        fresh: dict[str, np.ndarray] = {}
        for spec in TABLE_SCHEMA:
            column = np.empty(capacity, dtype=spec.np_dtype)
            if self._size:
                column[: self._size] = old[spec.name][: self._size]
            fresh[spec.name] = column
        self._columns = fresh
        self._capacity = capacity

    def reserve(self, n: int) -> slice:
        """Claim the next ``n`` rows; returns their slice into the columns.

        Grows the arena geometrically (factor 2, at least to the needed
        size) when the reservation does not fit, so a long sequence of
        reservations costs amortized O(1) allocations.
        """
        if n < 0:
            raise RecordsError("cannot reserve a negative row count")
        needed = self._size + n
        if needed > self._capacity:
            self._allocate(max(needed, self._capacity * 2))
        claimed = slice(self._size, needed)
        self._size = needed
        return claimed

    def column(self, name: str) -> np.ndarray:
        """Full-capacity buffer of one column (write through a slice)."""
        return self._columns[name]

    def reset(self) -> None:
        """Rewind the write cursor; buffers (and capacity) are kept."""
        self._size = 0

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Sessions the arena can hold before the next growth."""
        return self._capacity

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated across all column buffers."""
        return self._capacity * ROW_BYTES

    @property
    def fill_ratio(self) -> float:
        """Filled fraction of the allocated capacity (0..1)."""
        return self._size / self._capacity

    # -- table export ---------------------------------------------------
    def view(self, lo: int = 0, hi: int | None = None) -> "SessionTable":
        """Zero-copy :class:`SessionTable` over filled rows ``[lo, hi)``.

        The returned table aliases the arena buffers: it is valid until
        the arena grows, resets, or its rows are overwritten.  Callers
        that outlive the arena's next write must :meth:`snapshot` instead.
        """
        hi = self._size if hi is None else hi
        if not 0 <= lo <= hi <= self._size:
            raise RecordsError("arena view out of the filled range")
        return SessionTable(
            *(self._columns[spec.name][lo:hi] for spec in TABLE_SCHEMA),
            validate=False,
        )

    def snapshot(self, lo: int = 0, hi: int | None = None) -> "SessionTable":
        """Owning copy of filled rows ``[lo, hi)`` as a table."""
        hi = self._size if hi is None else hi
        if not 0 <= lo <= hi <= self._size:
            raise RecordsError("arena snapshot out of the filled range")
        return SessionTable(
            *(
                np.array(self._columns[spec.name][lo:hi])
                for spec in TABLE_SCHEMA
            ),
            validate=False,
        )


@dataclass(frozen=True)
class SessionRecord:
    """One transport-layer session, as seen by the gateway+RAN probes."""

    service: str
    bs_id: int
    day: int
    start_minute: int
    duration_s: float
    volume_mb: float
    truncated: bool

    @property
    def throughput_mbps(self) -> float:
        """Average session throughput in Mbit/s.

        Raises :class:`RecordsError` on a zero-duration row (a float32
        rounding artifact) rather than emitting ``inf``.
        """
        if self.duration_s == 0:
            raise RecordsError(
                "zero-duration session has no defined throughput"
            )
        return self.volume_mb * 8.0 / self.duration_s


class SessionTable:
    """Column-wise collection of session records.

    Columns (see :data:`TABLE_SCHEMA`, the canonical definition)
    -------
    service_idx : int16 — index into :data:`SERVICE_NAMES`
    bs_id       : int32 — serving base station
    day         : int16 — day index of the campaign
    start_minute: int16 — minute-of-day of session establishment (0..1439)
    duration_s  : float32 — served duration in seconds
    volume_mb   : float32 — served traffic volume in MB
    truncated   : bool — whether the session was cut by mobility/handover

    Construction coerces dtypes and, by default, runs the full
    :meth:`validate` pass.  Hot paths that hand over columns already known
    to be schema-exact (arena views, concatenations of validated tables)
    pass ``validate=False`` and get O(1) construction.
    """

    COLUMNS = tuple(spec.name for spec in TABLE_SCHEMA)

    def __init__(
        self,
        service_idx: np.ndarray,
        bs_id: np.ndarray,
        day: np.ndarray,
        start_minute: np.ndarray,
        duration_s: np.ndarray,
        volume_mb: np.ndarray,
        truncated: np.ndarray,
        *,
        validate: bool = True,
    ):
        self.service_idx = np.asarray(service_idx, dtype=np.int16)
        self.bs_id = np.asarray(bs_id, dtype=np.int32)
        self.day = np.asarray(day, dtype=np.int16)
        self.start_minute = np.asarray(start_minute, dtype=np.int16)
        self.duration_s = np.asarray(duration_s, dtype=np.float32)
        self.volume_mb = np.asarray(volume_mb, dtype=np.float32)
        self.truncated = np.asarray(truncated, dtype=bool)
        if validate:
            self.validate()

    def validate(self) -> "SessionTable":
        """Check column alignment and value ranges; returns ``self``.

        Raises :class:`RecordsError` on misaligned columns, service
        indices outside the catalog, non-positive durations or volumes
        (zero durations included — the rows that would otherwise emit
        infinite throughput), or start minutes outside 0..1439.
        """
        n = self.service_idx.size
        for column in self.COLUMNS:
            if getattr(self, column).shape != (n,):
                raise RecordsError(f"column {column} misaligned")
        if n:
            if self.service_idx.min() < 0 or self.service_idx.max() >= len(
                SERVICE_NAMES
            ):
                raise RecordsError("service_idx out of catalog range")
            if np.any(self.duration_s <= 0):
                raise RecordsError("durations must be positive")
            if np.any(self.volume_mb <= 0):
                raise RecordsError("volumes must be positive")
            if self.start_minute.min() < 0 or self.start_minute.max() > 1439:
                raise RecordsError("start_minute out of 0..1439")
        return self

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "SessionTable":
        """Return a table with zero rows and exact schema dtypes.

        Columns are allocated in their schema dtypes directly (not coerced
        from a float64 placeholder), so concatenating any number of empty
        tables — e.g. a campaign where every BS sampled zero arrivals —
        preserves the schema bit-for-bit.
        """
        return cls(
            *(np.empty(0, dtype=spec.np_dtype) for spec in TABLE_SCHEMA),
            validate=False,
        )

    def __len__(self) -> int:
        return int(self.service_idx.size)

    def select(self, mask: np.ndarray) -> "SessionTable":
        """Return the sub-table of rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.shape != (len(self),):
            raise RecordsError("mask must align with the table")
        return SessionTable(
            *(getattr(self, column)[mask] for column in self.COLUMNS),
            validate=False,
        )

    def for_service(self, service: str) -> "SessionTable":
        """Rows belonging to one service."""
        if service not in SERVICE_INDEX:
            raise RecordsError(f"unknown service {service!r}")
        return self.select(self.service_idx == SERVICE_INDEX[service])

    def for_bs_ids(self, bs_ids) -> "SessionTable":
        """Rows served by any of the given base stations."""
        return self.select(np.isin(self.bs_id, np.asarray(list(bs_ids))))

    def for_days(self, days) -> "SessionTable":
        """Rows recorded on any of the given day indices."""
        return self.select(np.isin(self.day, np.asarray(list(days))))

    @staticmethod
    def concatenate(tables: list["SessionTable"]) -> "SessionTable":
        """Stack several tables into one."""
        if not tables:
            return SessionTable.empty()
        return SessionTable(
            *(
                np.concatenate([getattr(t, column) for t in tables])
                for column in SessionTable.COLUMNS
            ),
            validate=False,
        )

    # ------------------------------------------------------------------
    def throughput_mbps(self) -> np.ndarray:
        """Per-session average throughput in Mbit/s.

        Raises :class:`RecordsError` if any row has a zero duration (a
        float32 rounding artifact on unvalidated tables) — an explicit
        error beats silently propagating ``inf`` into aggregates.
        """
        if len(self) and np.any(self.duration_s == 0):
            raise RecordsError(
                "zero-duration sessions have no defined throughput; "
                "run validate() to locate them"
            )
        return self.volume_mb.astype(float) * 8.0 / self.duration_s.astype(float)

    def rows(self):
        """Iterate rows as :class:`SessionRecord` objects (small tables)."""
        for i in range(len(self)):
            yield SessionRecord(
                service=SERVICE_NAMES[self.service_idx[i]],
                bs_id=int(self.bs_id[i]),
                day=int(self.day[i]),
                start_minute=int(self.start_minute[i]),
                duration_s=float(self.duration_s[i]),
                volume_mb=float(self.volume_mb[i]),
                truncated=bool(self.truncated[i]),
            )

    def total_volume_mb(self) -> float:
        """Sum of all served volumes in MB."""
        return float(self.volume_mb.sum())
