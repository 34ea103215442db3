"""Mergeable aggregate sketches for campaigns that never retain sessions.

Every sketch in this module obeys one contract: ``merge`` is **bit-exactly
associative and commutative**, and accumulating a table in one pass equals
accumulating any partition of it in any order.  That is what lets the
sharded campaign driver (:mod:`repro.campaign.driver`) fold per-shard
results into campaign-level statistics with byte-identical outcomes for
serial, parallel and kill-then-resume runs.

Exactness is engineered, not assumed:

* counts and histogram bins are integers — integer addition is exact;
  bin indices come from arithmetic on the fixed grid plus one exact
  comparison against the real edges (:class:`FixedHistogram`);
* value sums (:class:`Moments`) are kept as **integers in fixed power-of-two
  quanta** (e.g. volumes in 2^-20 MB ≈ bytes), so no float rounding ever
  depends on the merge order.  A chunk's quanta are summed exactly in
  vectorized ``int64`` limbs — one cast, 31-bit halves when the total
  could overflow, mantissa/shift limbs beyond 2^62 — at any finite
  magnitude; only per-chunk totals become unbounded Python ints;
* minima/maxima and HyperLogLog register maxima are order-free by
  construction.

The distinct-count sketch is a seeded HyperLogLog — the "count distinct
problem" of national-scale aggregation pipelines (cf. the EIDA statistics
aggregator): registers hold the maximum leading-zero rank of a 64-bit hash
per bucket, merge is a register-wise maximum, and the estimate carries the
standard ``1.04/sqrt(m)`` relative error.  The synthetic session schema
has no user identifier, so :class:`CampaignAggregate` feeds the sketch
with per-session fingerprints (distinct session records); a deployment
with real user IDs plugs those in instead.

Serialization is versioned (:data:`SKETCH_FORMAT_VERSION`): integers are
arbitrary-precision JSON ints, floats round-trip exactly through ``repr``,
HLL registers travel as hex — ``from_dict(to_dict(x))`` reproduces ``x``
bit for bit, and merging deserialized sketches equals merging the
originals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..analysis.histogram import LOG_GRID
from ..dataset.aggregation import DURATION_EDGES
from ..dataset.circadian import MINUTES_PER_DAY, peak_minute_mask
from ..dataset.records import SERVICE_NAMES, SessionTable

#: Bump when any sketch's serialized form changes incompatibly; folded
#: into shard-checkpoint content keys so stale checkpoints cleanly miss.
SKETCH_FORMAT_VERSION = 1

#: Volume sums are integers in 2^-20 MB quanta (= bytes): exact for any
#: merge order, sub-byte truncation is irrelevant at campaign scale.
VOLUME_QUANTUM_LOG2 = 20

#: Squared-volume sums in 2^-6 MB^2 quanta — coarse enough that per-chunk
#: int64 partial sums cannot overflow, fine enough for variance at scale.
VOLUME_SQ_QUANTUM_LOG2 = 6

#: Duration sums in 2^-10 s quanta (~millisecond).
DURATION_QUANTUM_LOG2 = 10

#: Squared-duration sums in 2^-6 s^2 quanta.
DURATION_SQ_QUANTUM_LOG2 = 6

#: Default HyperLogLog precision: 2^14 registers, ~0.81 % standard error —
#: the classic production setting (16 KiB of registers).
DEFAULT_HLL_PRECISION = 14

#: Default seed of the session-fingerprint hash feeding the HLL.
DEFAULT_HLL_SEED = 0x5E55104E

#: Quantized magnitudes below this bound convert to ``int64`` directly
#: (larger ones split into mantissa/shift limbs), and int64 sums whose
#: every partial sum stays below it cannot overflow.
_INT64_SAFE = 1 << 62

#: A float64 holds every integer up to 2**53 exactly, so float sums whose
#: every partial sum stays below it are exact.
_FLOAT_EXACT = float(1 << 53)

#: Low half of a limb split into 31-bit halves.
_HALF_MASK = np.int64((1 << 31) - 1)

#: splitmix64 constants (Steele et al.), the 64-bit finalizer mixing each
#: fingerprint component.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_SM_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


class SketchError(ValueError):
    """Raised on inconsistent sketch configuration or incompatible merges."""


# ----------------------------------------------------------------------
# Exact integer accumulation helpers
# ----------------------------------------------------------------------
def _quantize(
    values: np.ndarray, quantum_log2: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Map float values to exact integers in ``2**-quantum_log2`` quanta.

    Scaling by a power of two is exact, so the only rounding is the final
    ``rint``; the result is the same no matter where or in what batch the
    value is quantized.  The integers stay in float64, which holds each of
    them exactly at any finite magnitude (:func:`_int64_limbs` splits them
    for exact summation).  ``out`` may be ``values`` itself.
    """
    scaled = np.multiply(values, 2.0**quantum_log2, out=out)
    return np.rint(scaled, out=scaled)


def _int64_limbs(
    quantized: np.ndarray, high: float, low: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Split quantized float64 integers exactly into ``int64`` limbs.

    ``high``/``low`` are the array's maximum and minimum.  Returns
    ``(limb, shift)`` with ``value == limb << shift`` row by row and
    ``|limb| < 2**62`` (``shift`` None means zero everywhere).  Values
    below 2^62 — every realistic chunk — convert in one cast; otherwise
    each value splits into its 53-bit mantissa and a power-of-two shift,
    which is exact at any finite magnitude.
    """
    if high < _INT64_SAFE and -low < _INT64_SAFE:
        return quantized.astype(np.int64), None
    if not (np.isfinite(high) and np.isfinite(low)):
        raise SketchError("cannot accumulate non-finite values exactly")
    fraction, exponent = np.frexp(quantized)
    shift = np.maximum(exponent - 53, 0)
    return np.ldexp(fraction, exponent - shift).astype(np.int64), shift


def _exact_bincount(
    index: np.ndarray, limb: np.ndarray, shift: np.ndarray | None, minlength: int
) -> list[int]:
    """Per-bucket exact sums of ``limb << shift`` (see :func:`_int64_limbs`).

    Each ``int64`` limb splits into 31-bit halves, binned together with
    its shift in blocks of 2^22 rows: every float64 partial sum then stays
    within 2^53, where ``np.bincount`` is exact.  Bucket totals recombine
    into unbounded Python ints.
    """
    totals = [0] * minlength
    n_shifts = 1 if shift is None else int(shift.max()) + 1
    key = index if shift is None else index * n_shifts + shift
    for lo in range(0, limb.size, 1 << 22):
        block, keys = limb[lo : lo + (1 << 22)], key[lo : lo + (1 << 22)]
        for offset, part in ((0, block & _HALF_MASK), (31, block >> 31)):
            sums = np.bincount(
                keys,
                weights=part.astype(np.float64),
                minlength=minlength * n_shifts,
            )
            for flat in np.flatnonzero(sums):
                bucket, row_shift = divmod(int(flat), n_shifts)
                totals[bucket] += int(sums[flat]) << (row_shift + offset)
    return totals


def _exact_sum(quantized: np.ndarray) -> int:
    """Sum quantized integers exactly into an unbounded Python int.

    ``int64`` limbs sum directly while ``max * rows`` stays below 2^62,
    as 31-bit halves otherwise (each half sums below 2^62 over 2^31
    rows), and through :func:`_exact_bincount` when the limbs carry
    shifts.
    """
    if quantized.size == 0:
        return 0
    high, low = float(quantized.max()), float(quantized.min())
    limb, shift = _int64_limbs(quantized, high, low)
    if shift is not None:
        single = np.zeros(limb.size, dtype=np.intp)
        return _exact_bincount(single, limb, shift, 1)[0]
    if max(high, -low) * limb.size < _INT64_SAFE:
        return int(limb.sum())
    total = 0
    for lo in range(0, limb.size, 1 << 31):
        block = limb[lo : lo + (1 << 31)]
        total += int((block & _HALF_MASK).sum())
        total += int((block >> 31).sum()) << 31
    return total


def _exact_weighted_bincount(
    index: np.ndarray, quantized: np.ndarray, minlength: int
) -> list[int]:
    """Per-bucket exact integer sums of non-negative quantized weights.

    One float64 ``np.bincount`` when ``max * rows`` stays below 2^53 (so
    every partial sum is an exact float), else :func:`_exact_bincount`.
    """
    if quantized.size == 0:
        return [0] * minlength
    high, low = float(quantized.max()), float(quantized.min())
    if not low >= 0:
        raise SketchError("weighted bincount requires >= 0 weights")
    if high * quantized.size < _FLOAT_EXACT:
        sums = np.bincount(index, weights=quantized, minlength=minlength)
        return [int(value) for value in sums]
    limb, shift = _int64_limbs(quantized, high, low)
    return _exact_bincount(index, limb, shift, minlength)


def _require(condition: bool, message: str) -> None:
    """Raise :class:`SketchError` unless a structural invariant holds."""
    if not condition:
        raise SketchError(message)


# ----------------------------------------------------------------------
# Moments
# ----------------------------------------------------------------------
@dataclass
class Moments:
    """Count/sum/second-moment accumulator on exact integer quanta.

    ``total_q`` and ``total_sq_q`` are unbounded Python ints counting
    ``2**-quantum_log2`` (resp. ``2**-sq_quantum_log2``) units, summed
    through exact ``int64`` limbs, so update and merge are exact in any
    order; minima and maxima are float but order-free.  The empty
    accumulator is the merge identity: folding it in changes nothing,
    and every derivation (:meth:`mean`, :meth:`variance`) is total —
    zero counts yield 0.0, never a NaN or a division error.
    """

    quantum_log2: int
    sq_quantum_log2: int
    count: int = 0
    total_q: int = 0
    total_sq_q: int = 0
    minimum: float | None = None
    maximum: float | None = None

    def update(
        self, values: np.ndarray, quantized: np.ndarray | None = None
    ) -> "Moments":
        """Fold a batch of raw float values in; returns ``self``.

        ``quantized``, when given, must be ``values`` already quantized
        at :attr:`quantum_log2` (callers that need the quanta themselves
        pass them in rather than quantizing twice).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self
        if quantized is None:
            quantized = _quantize(values, self.quantum_log2)
        self.count += int(values.size)
        self.total_q += _exact_sum(quantized)
        squares = np.square(values)
        self.total_sq_q += _exact_sum(
            _quantize(squares, self.sq_quantum_log2, out=squares)
        )
        low, high = float(values.min()), float(values.max())
        self.minimum = low if self.minimum is None else min(self.minimum, low)
        self.maximum = high if self.maximum is None else max(self.maximum, high)
        return self

    def merge(self, other: "Moments") -> "Moments":
        """Fold another accumulator in (associative, commutative, exact)."""
        _require(
            self.quantum_log2 == other.quantum_log2
            and self.sq_quantum_log2 == other.sq_quantum_log2,
            "cannot merge moment accumulators with different quanta",
        )
        self.count += other.count
        self.total_q += other.total_q
        self.total_sq_q += other.total_sq_q
        if other.minimum is not None:
            self.minimum = (
                other.minimum
                if self.minimum is None
                else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum
                if self.maximum is None
                else max(self.maximum, other.maximum)
            )
        return self

    def sum(self) -> float:
        """Accumulated total in original units."""
        return float(np.ldexp(float(self.total_q), -self.quantum_log2))

    def mean(self) -> float:
        """Mean value; 0.0 for the empty accumulator (total, no NaN)."""
        if self.count == 0:
            return 0.0
        return self.sum() / self.count

    def variance(self) -> float:
        """Population variance; 0.0 for the empty accumulator."""
        if self.count == 0:
            return 0.0
        mean_sq = float(
            np.ldexp(float(self.total_sq_q), -self.sq_quantum_log2)
        ) / self.count
        return max(0.0, mean_sq - self.mean() ** 2)

    def to_dict(self) -> dict:
        """Exact JSON-able form (ints unbounded, floats via ``repr``)."""
        return {
            "quantum_log2": self.quantum_log2,
            "sq_quantum_log2": self.sq_quantum_log2,
            "count": self.count,
            "total_q": self.total_q,
            "total_sq_q": self.total_sq_q,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Moments":
        """Inverse of :meth:`to_dict` (bit-exact round trip)."""
        try:
            return cls(
                quantum_log2=int(payload["quantum_log2"]),
                sq_quantum_log2=int(payload["sq_quantum_log2"]),
                count=int(payload["count"]),
                total_q=int(payload["total_q"]),
                total_sq_q=int(payload["total_sq_q"]),
                minimum=(
                    None
                    if payload["minimum"] is None
                    else float(payload["minimum"])
                ),
                maximum=(
                    None
                    if payload["maximum"] is None
                    else float(payload["maximum"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchError(f"invalid moments payload: {exc}") from exc


# ----------------------------------------------------------------------
# Fixed-bin histogram
# ----------------------------------------------------------------------
#: Largest magnitude of ``log(v)`` over positive finite doubles; bounds the
#: absolute rounding error of a logarithmic bin position.
_LOG_RANGE = 745.0


@dataclass(frozen=True)
class _BinGuess:
    """Arithmetic bin guess ``floor((T(v) - origin) * scale)`` of a grid.

    ``T`` is the identity for a uniform grid and ``log`` for a geometric
    one.  ``origin`` sits half a bin above the first edge, so a guess is
    either the true bin or the one below it.  ``upper`` holds each bin's
    upper edge, the last one NaN: comparisons with NaN are false, so the
    correction never steps past the last bin.
    """

    log: bool
    first: float
    origin: float
    scale: float
    upper: np.ndarray

    @classmethod
    def of(cls, edges: np.ndarray) -> "_BinGuess | None":
        """The guess of a uniform or geometric grid; None for any other.

        A guess is accepted when every edge's computed position is within
        a quarter bin of half a bin below its index, rounding included.
        A value in bin ``j`` then sits at a position in
        ``[j - 0.75, j + 0.75)``, up to the far smaller rounding of ``T``
        and the affine map, so its guess is ``j`` or ``j - 1`` — and one
        comparison against the guessed bin's upper edge corrects it.
        """
        n_bins = edges.size - 1
        candidates = [(False, edges, float(np.abs(edges).max()))]
        if edges[0] > 0:
            candidates.append((True, np.log(edges), _LOG_RANGE))
        for log, points, reach in candidates:
            with np.errstate(all="ignore"):  # degenerate grids: NaN drift
                scale = n_bins / float(points[-1] - points[0])
                origin = float(points[0]) + 0.5 / scale
                drift = np.abs(
                    (points - origin) * scale - (np.arange(edges.size) - 0.5)
                )
            slack = 2.0**-40 * scale * (reach + abs(origin))
            if float(drift.max()) + slack <= 0.25:
                upper = edges[1:].copy()
                upper[-1] = np.nan
                return cls(log, float(edges[0]), origin, scale, upper)
        return None

    def index(self, values: np.ndarray) -> np.ndarray:
        """Clipped bin index of every value (NaN and +inf: last bin)."""
        with np.errstate(over="ignore"):  # huge values: +-inf, clipped below
            if self.log:
                # log(v) of v at or below the first edge would be -inf or
                # NaN; clamping keeps those in bin 0, NaN stays NaN.
                position = np.maximum(values, self.first)
                np.log(position, out=position)
                position -= self.origin
            else:
                position = values - self.origin
            position *= self.scale
        # fmin maps NaN to the last bin; no NaN is left for maximum.
        np.fmin(position, self.upper.size - 1, out=position)
        np.maximum(position, 0, out=position)
        index = position.astype(np.intp)
        index += values >= np.take(self.upper, index)
        return index


class FixedHistogram:
    """Integer-count histogram over a fixed, shared bin grid.

    All shards of one campaign bin against identical edges, so merging is
    plain integer addition of the count vectors — exact in any order.
    Out-of-range values clip into the edge bins (probability mass is
    conserved, matching the convention of
    :class:`~repro.analysis.histogram.LogHistogram`).
    """

    def __init__(self, edges: np.ndarray, counts: np.ndarray | None = None):
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise SketchError("histogram needs at least two bin edges")
        if np.any(np.diff(self.edges) <= 0):
            raise SketchError("histogram edges must strictly increase")
        n_bins = self.edges.size - 1
        if counts is None:
            self.counts = np.zeros(n_bins, dtype=np.int64)
        else:
            self.counts = np.asarray(counts, dtype=np.int64)
            if self.counts.shape != (n_bins,):
                raise SketchError("histogram counts misaligned with edges")
            if self.counts.size and int(self.counts.min()) < 0:
                raise SketchError("histogram counts must be >= 0")

    @property
    def n_bins(self) -> int:
        """Number of bins of the grid."""
        return self.edges.size - 1

    @property
    def total(self) -> int:
        """Total number of binned values."""
        return int(self.counts.sum())

    @cached_property
    def _guess(self) -> _BinGuess | None:
        """Arithmetic bin guess of the grid, derived on first update."""
        return _BinGuess.of(self.edges)

    def update(self, values: np.ndarray) -> "FixedHistogram":
        """Bin a batch of raw values in place; returns ``self``.

        A value exactly on an interior edge lands in the right bin
        (half-open bins), matching ``np.histogram`` on the same grid.
        Uniform and geometric grids locate bins by arithmetic plus an
        exact one-step correction against the edges; any other grid uses
        a binary search.  Both equal ``searchsorted(side="right") - 1``,
        clipped to the grid, for every input.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self
        if self._guess is not None:
            idx = self._guess.index(values)
        else:
            idx = np.searchsorted(self.edges, values, side="right") - 1
            np.clip(idx, 0, self.n_bins - 1, out=idx)
        self.counts += np.bincount(idx, minlength=self.n_bins)
        return self

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        """Fold another histogram in (exact integer addition)."""
        _require(
            np.array_equal(self.edges, other.edges),
            "cannot merge histograms over different bin grids",
        )
        self.counts += other.counts
        return self

    def density(self) -> np.ndarray:
        """Per-bin probability density; all-zero when empty (no NaN)."""
        total = self.total
        if total == 0:
            return np.zeros(self.n_bins, dtype=np.float64)
        return self.counts / (total * np.diff(self.edges))

    def to_dict(self) -> dict:
        """Exact JSON-able form (edges round-trip via ``repr``)."""
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FixedHistogram":
        """Inverse of :meth:`to_dict` (bit-exact round trip)."""
        try:
            return cls(
                np.asarray(payload["edges"], dtype=np.float64),
                np.asarray(payload["counts"], dtype=np.int64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchError(f"invalid histogram payload: {exc}") from exc


# ----------------------------------------------------------------------
# HyperLogLog
# ----------------------------------------------------------------------
def _splitmix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer of a uint64 buffer, in place; returns ``z``.

    Wrapping uint64 arithmetic.  ``scratch`` (same shape, uint64) holds
    the shifted terms, so callers mixing many rounds allocate it once.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    shift_a, shift_b, shift_c = _SM_SHIFTS
    with np.errstate(over="ignore"):
        z += _SM_GAMMA
        np.right_shift(z, shift_a, out=scratch)
        z ^= scratch
        z *= _SM_M1
        np.right_shift(z, shift_b, out=scratch)
        z ^= scratch
        z *= _SM_M2
        np.right_shift(z, shift_c, out=scratch)
        z ^= scratch
    return z


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length of uint64 values (0 for zero).

    Each 32-bit half converts to float64 exactly, and the ``frexp``
    exponent of an exact float is its bit length — so, unlike ``log2``
    of the whole value, the result is exact for every input, which keeps
    HLL ranks (and therefore merged registers) identical wherever they
    are computed.
    """
    high = np.frexp((values >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((values & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


class HyperLogLog:
    """Seeded HyperLogLog distinct-count sketch with exact merge.

    ``precision`` ``p`` selects ``m = 2**p`` one-byte registers; each
    64-bit hash routes to register ``h >> (64-p)`` and contributes the
    rank (leading-zero count + 1) of its remaining ``64-p`` bits.  Merge
    is a register-wise maximum — associative, commutative, idempotent —
    so any shard order folds to identical registers.  The estimate uses
    the standard bias-corrected harmonic mean with the small-range
    linear-counting correction; the relative standard error is
    ``1.04/sqrt(m)``.

    ``seed`` identifies the hash stream the registers were built from;
    merging sketches with different seeds or precisions raises
    :class:`SketchError` (their registers are not comparable).
    """

    def __init__(
        self,
        precision: int = DEFAULT_HLL_PRECISION,
        seed: int = DEFAULT_HLL_SEED,
        registers: np.ndarray | None = None,
    ):
        if not 4 <= int(precision) <= 18:
            raise SketchError("HLL precision must be in 4..18")
        self.precision = int(precision)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        m = 1 << self.precision
        if registers is None:
            self.registers = np.zeros(m, dtype=np.uint8)
        else:
            self.registers = np.asarray(registers, dtype=np.uint8)
            if self.registers.shape != (m,):
                raise SketchError("HLL registers misaligned with precision")

    @property
    def n_registers(self) -> int:
        """Number of registers ``m = 2**precision``."""
        return 1 << self.precision

    def relative_error(self) -> float:
        """Standard error of the estimate, relative (``1.04/sqrt(m)``)."""
        return 1.04 / float(np.sqrt(self.n_registers))

    def add_hashes(self, hashes: np.ndarray) -> "HyperLogLog":
        """Fold pre-hashed uint64 values in; returns ``self``.

        Callers are responsible for hashing with this sketch's
        :attr:`seed` (see :func:`session_fingerprints`); the sketch only
        routes bits to registers.
        """
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        if hashes.size == 0:
            return self
        tail_bits = 64 - self.precision
        idx = (hashes >> np.uint64(tail_bits)).astype(np.intp)
        tail = hashes & np.uint64((1 << tail_bits) - 1)
        # A rank exceeds register r exactly when the tail is below
        # 2**(tail_bits - r); other rows cannot raise any register, so
        # only the rest are ranked and folded in.
        room = tail_bits - self.registers.astype(np.int64)
        threshold = np.where(
            room >= 0,
            np.left_shift(np.uint64(1), np.maximum(room, 0).astype(np.uint64)),
            np.uint64(0),
        )
        rows = np.flatnonzero(tail < np.take(threshold, idx))
        if rows.size:
            rank = (tail_bits + 1 - _bit_length(tail[rows])).astype(np.uint8)
            np.maximum.at(self.registers, idx[rows], rank)
        return self

    def add_items(self, items: np.ndarray) -> "HyperLogLog":
        """Hash raw uint64 item identifiers under the seed and fold in."""
        seeded = np.asarray(items, dtype=np.uint64) ^ np.uint64(self.seed)
        return self.add_hashes(_splitmix64(seeded))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Register-wise maximum (associative, commutative, idempotent)."""
        _require(
            self.precision == other.precision,
            "cannot merge HLL sketches of different precision",
        )
        _require(
            self.seed == other.seed,
            "cannot merge HLL sketches built from different hash seeds",
        )
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        """Bias-corrected distinct-count estimate (0.0 when empty)."""
        m = self.n_registers
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = float(
            np.sum(np.exp2(-self.registers.astype(np.float64)))
        )
        raw = alpha * m * m / harmonic
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros:
            return m * float(np.log(m / zeros))
        return raw

    def to_dict(self) -> dict:
        """Exact JSON-able form; registers travel as a hex string."""
        return {
            "precision": self.precision,
            "seed": self.seed,
            "registers": self.registers.tobytes().hex(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HyperLogLog":
        """Inverse of :meth:`to_dict` (bit-exact round trip)."""
        try:
            registers = np.frombuffer(
                bytes.fromhex(payload["registers"]), dtype=np.uint8
            ).copy()
            return cls(
                precision=int(payload["precision"]),
                seed=int(payload["seed"]),
                registers=registers,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchError(f"invalid HLL payload: {exc}") from exc


def session_fingerprints(table: SessionTable, seed: int) -> np.ndarray:
    """Seeded 64-bit fingerprints of every session record in a table.

    Each row's columns are mixed into one uint64 through chained
    splitmix64 rounds — a pure function of (seed, row content), so the
    same session yields the same fingerprint in whatever shard or chunk
    it is generated.  Float columns contribute their exact bit patterns.
    """
    h = np.full(len(table), seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    column = np.empty_like(h)
    for values in (
        table.service_idx,
        table.bs_id,
        table.day,
        table.start_minute,
        table.duration_s.view(np.uint32),
        table.volume_mb.view(np.uint32),
        table.truncated,
    ):
        # Integer columns widen with sign extension, the float bit
        # patterns with zero extension; the buffer is then reused as the
        # mixing scratch.
        np.copyto(column, values, casting="unsafe")
        h ^= column
        _splitmix64(h, column)
    return h


# ----------------------------------------------------------------------
# Campaign-level composite aggregate
# ----------------------------------------------------------------------
@dataclass
class CampaignAggregate:
    """The mergeable campaign-level statistic bundle of the sharded driver.

    One instance summarizes any set of (day, BS) units: per-service
    session counts and exact-integer volume totals (Table 1 shares and the
    Fig 4 ranking), the global volume PDF on the shared
    :data:`~repro.analysis.histogram.LOG_GRID`, the duration PDF on the
    Section 3.2 bins, per-minute arrival counts (circadian profiles),
    volume/duration moment accumulators, and the seeded HyperLogLog
    distinct-session sketch.  :meth:`merge` folds two bundles exactly;
    :meth:`update_table` accumulates raw sessions in one vectorized pass.

    The freshly constructed aggregate (:meth:`empty`) is the merge
    identity — exactly what an empty (day, BS) shard produces — and every
    derivation is total: empty inputs yield zeros, never NaN bins or a
    division error.
    """

    service_sessions: np.ndarray = field(
        default_factory=lambda: np.zeros(len(SERVICE_NAMES), dtype=np.int64)
    )
    service_volume_q: list[int] = field(
        default_factory=lambda: [0] * len(SERVICE_NAMES)
    )
    minute_sessions: np.ndarray = field(
        default_factory=lambda: np.zeros(MINUTES_PER_DAY, dtype=np.int64)
    )
    volume_hist: FixedHistogram = field(
        default_factory=lambda: FixedHistogram(LOG_GRID)
    )
    duration_hist: FixedHistogram = field(
        default_factory=lambda: FixedHistogram(DURATION_EDGES)
    )
    volume: Moments = field(
        default_factory=lambda: Moments(
            VOLUME_QUANTUM_LOG2, VOLUME_SQ_QUANTUM_LOG2
        )
    )
    duration: Moments = field(
        default_factory=lambda: Moments(
            DURATION_QUANTUM_LOG2, DURATION_SQ_QUANTUM_LOG2
        )
    )
    distinct: HyperLogLog = field(default_factory=HyperLogLog)
    truncated_sessions: int = 0
    n_units: int = 0

    @classmethod
    def empty(
        cls,
        precision: int = DEFAULT_HLL_PRECISION,
        seed: int = DEFAULT_HLL_SEED,
    ) -> "CampaignAggregate":
        """The identity element, with the HLL configured as given."""
        return cls(distinct=HyperLogLog(precision=precision, seed=seed))

    @classmethod
    def from_table(
        cls,
        table: SessionTable,
        *,
        n_units: int = 0,
        precision: int = DEFAULT_HLL_PRECISION,
        seed: int = DEFAULT_HLL_SEED,
    ) -> "CampaignAggregate":
        """Single-pass aggregate of one table (``n_units`` units' worth)."""
        aggregate = cls.empty(precision=precision, seed=seed)
        aggregate.update_table(table)
        aggregate.count_units(n_units)
        return aggregate

    # -- accumulation ---------------------------------------------------
    def update_table(self, table: SessionTable) -> "CampaignAggregate":
        """Fold a batch of raw sessions in; returns ``self``.

        Accumulating a table equals accumulating any partition of its rows
        in any order — every component is an exact integer or order-free
        reduction — which is the invariant the shard/chunk topology of the
        driver relies on.
        """
        n = len(table)
        if n == 0:
            return self
        service = np.asarray(table.service_idx, dtype=np.intp)
        self.service_sessions += np.bincount(
            service, minlength=len(SERVICE_NAMES)
        )
        self.minute_sessions += np.bincount(
            np.asarray(table.start_minute, dtype=np.intp),
            minlength=MINUTES_PER_DAY,
        )
        self.truncated_sessions += int(np.count_nonzero(table.truncated))
        volume = np.asarray(table.volume_mb, dtype=np.float64)
        duration = np.asarray(table.duration_s, dtype=np.float64)
        volume_q = _quantize(volume, VOLUME_QUANTUM_LOG2)
        for idx, total in enumerate(
            _exact_weighted_bincount(service, volume_q, len(SERVICE_NAMES))
        ):
            self.service_volume_q[idx] += total
        self.volume_hist.update(np.log10(volume))
        self.duration_hist.update(duration)
        self.volume.update(volume, volume_q)
        self.duration.update(duration)
        self.distinct.add_hashes(
            session_fingerprints(table, self.distinct.seed)
        )
        return self

    def count_units(self, n_units: int) -> "CampaignAggregate":
        """Record that ``n_units`` (day, BS) units fed this aggregate.

        Kept separate from :meth:`update_table` because a unit that
        produced zero sessions still covers BS-time (it must dilute
        per-unit rates, not vanish).
        """
        if n_units < 0:
            raise SketchError("unit count cannot be negative")
        self.n_units += int(n_units)
        return self

    def merge(self, other: "CampaignAggregate") -> "CampaignAggregate":
        """Fold another aggregate in (associative, commutative, exact)."""
        self.service_sessions += other.service_sessions
        for idx, total in enumerate(other.service_volume_q):
            self.service_volume_q[idx] += total
        self.minute_sessions += other.minute_sessions
        self.volume_hist.merge(other.volume_hist)
        self.duration_hist.merge(other.duration_hist)
        self.volume.merge(other.volume)
        self.duration.merge(other.duration)
        self.distinct.merge(other.distinct)
        self.truncated_sessions += other.truncated_sessions
        self.n_units += other.n_units
        return self

    # -- derived statistics (all total: empty inputs yield zeros) -------
    @property
    def n_sessions(self) -> int:
        """Total number of aggregated sessions."""
        return int(self.service_sessions.sum())

    def total_volume_mb(self) -> float:
        """Total served traffic volume in MB."""
        return float(
            np.ldexp(float(sum(self.service_volume_q)), -VOLUME_QUANTUM_LOG2)
        )

    def service_session_shares(self) -> np.ndarray:
        """Per-service session fraction in catalog order (zeros if empty)."""
        total = self.n_sessions
        if total == 0:
            return np.zeros(len(SERVICE_NAMES), dtype=np.float64)
        return self.service_sessions / float(total)

    def service_traffic_shares(self) -> np.ndarray:
        """Per-service traffic fraction in catalog order (zeros if empty)."""
        total = sum(self.service_volume_q)
        if total == 0:
            return np.zeros(len(SERVICE_NAMES), dtype=np.float64)
        return np.asarray(
            [float(q / total) for q in self.service_volume_q],
            dtype=np.float64,
        )

    def shares_table(self) -> dict[str, tuple[float, float]]:
        """Per-service (session share, traffic share), as fractions.

        Same shape as
        :func:`~repro.dataset.aggregation.service_shares`, computed from
        the merged counters instead of raw sessions.
        """
        sessions = self.service_session_shares()
        traffic = self.service_traffic_shares()
        return {
            name: (float(sessions[i]), float(traffic[i]))
            for i, name in enumerate(SERVICE_NAMES)
        }

    def volume_pdf(self) -> np.ndarray:
        """Campaign volume PDF over the global log10(MB) grid.

        Density per decade on
        :data:`~repro.analysis.histogram.LOG_GRID` — bin-compatible with
        every :class:`~repro.analysis.histogram.LogHistogram` in the code
        base.  All-zero when no sessions were aggregated.
        """
        return self.volume_hist.density()

    def duration_pdf(self) -> np.ndarray:
        """Campaign duration density over the Section 3.2 geometric bins."""
        return self.duration_hist.density()

    def circadian_profile(self) -> np.ndarray:
        """Mean arrivals per minute-of-day per (day, BS) unit.

        All-zero when no units were counted (empty-campaign identity).
        """
        if self.n_units == 0:
            return np.zeros(MINUTES_PER_DAY, dtype=np.float64)
        return self.minute_sessions / float(self.n_units)

    def day_night_ratio(self) -> float:
        """Mean peak-phase over mean night-phase arrival rate (Fig 3).

        Returns 0.0 for the all-empty aggregate; raises
        :class:`SketchError` when sessions exist but the night phase is
        empty (the ratio is undefined, and silently returning infinity
        would poison downstream statistics).
        """
        mask = peak_minute_mask()
        peak_mean = float(self.minute_sessions[mask].mean())
        night_mean = float(self.minute_sessions[~mask].mean())
        if night_mean == 0.0:
            if peak_mean == 0.0:
                return 0.0
            raise SketchError(
                "day/night ratio undefined: no nighttime arrivals"
            )
        return peak_mean / night_mean

    def distinct_sessions(self) -> float:
        """HLL estimate of distinct session fingerprints."""
        return self.distinct.estimate()

    def summary(self) -> dict:
        """Headline campaign numbers for CLI output and run manifests."""
        return {
            "sessions": self.n_sessions,
            "units": self.n_units,
            "truncated": self.truncated_sessions,
            "volume_gb": round(self.total_volume_mb() / 1e3, 3),
            "distinct_estimate": round(self.distinct_sessions(), 1),
            "mean_volume_mb": round(self.volume.mean(), 6),
            "mean_duration_s": round(self.duration.mean(), 3),
        }

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned, exact JSON-able form of the whole bundle."""
        return {
            "format": SKETCH_FORMAT_VERSION,
            "service_sessions": [int(c) for c in self.service_sessions],
            "service_volume_q": list(self.service_volume_q),
            "volume_quantum_log2": VOLUME_QUANTUM_LOG2,
            "minute_sessions": [int(c) for c in self.minute_sessions],
            "volume_hist": self.volume_hist.to_dict(),
            "duration_hist": self.duration_hist.to_dict(),
            "volume_moments": self.volume.to_dict(),
            "duration_moments": self.duration.to_dict(),
            "distinct": self.distinct.to_dict(),
            "truncated_sessions": self.truncated_sessions,
            "n_units": self.n_units,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignAggregate":
        """Inverse of :meth:`to_dict`; rejects other format versions."""
        try:
            version = payload["format"]
            if version != SKETCH_FORMAT_VERSION:
                raise SketchError(
                    f"unsupported sketch format {version!r} "
                    f"(this build reads {SKETCH_FORMAT_VERSION})"
                )
            if int(payload["volume_quantum_log2"]) != VOLUME_QUANTUM_LOG2:
                raise SketchError("mismatched service-volume quantum")
            service_sessions = np.asarray(
                payload["service_sessions"], dtype=np.int64
            )
            minute_sessions = np.asarray(
                payload["minute_sessions"], dtype=np.int64
            )
            if service_sessions.shape != (len(SERVICE_NAMES),):
                raise SketchError("service session counts misaligned")
            if minute_sessions.shape != (MINUTES_PER_DAY,):
                raise SketchError("minute counts misaligned")
            service_volume_q = [int(q) for q in payload["service_volume_q"]]
            if len(service_volume_q) != len(SERVICE_NAMES):
                raise SketchError("service volume totals misaligned")
            return cls(
                service_sessions=service_sessions,
                service_volume_q=service_volume_q,
                minute_sessions=minute_sessions,
                volume_hist=FixedHistogram.from_dict(payload["volume_hist"]),
                duration_hist=FixedHistogram.from_dict(
                    payload["duration_hist"]
                ),
                volume=Moments.from_dict(payload["volume_moments"]),
                duration=Moments.from_dict(payload["duration_moments"]),
                distinct=HyperLogLog.from_dict(payload["distinct"]),
                truncated_sessions=int(payload["truncated_sessions"]),
                n_units=int(payload["n_units"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SketchError):
                raise
            raise SketchError(f"invalid aggregate payload: {exc}") from exc

    def canonical_json(self) -> str:
        """Canonical serialized form (sorted keys, no whitespace)."""
        import json

        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 of the canonical form — the byte-identity fingerprint."""
        import hashlib

        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def merge_all(
    aggregates: Iterable[CampaignAggregate] | Sequence[CampaignAggregate],
    *,
    precision: int = DEFAULT_HLL_PRECISION,
    seed: int = DEFAULT_HLL_SEED,
) -> CampaignAggregate:
    """Fold any number of aggregates into a fresh one (exact, any order)."""
    total = CampaignAggregate.empty(precision=precision, seed=seed)
    for aggregate in aggregates:
        total.merge(aggregate)
    return total
