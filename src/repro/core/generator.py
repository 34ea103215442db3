"""Model-driven session traffic generator — the fused arena engine.

This is the "consumer side" of the library: given fitted arrival models,
a service mix and a :class:`~repro.core.model_bank.ModelBank`, it produces
synthetic :class:`~repro.dataset.records.SessionTable` campaigns with the
same schema the measurement substrate produces — so any analysis, use case
or network simulator can run interchangeably on measured or generated
traffic.  This interchangeability is exactly what the paper's use cases
(Section 6) exploit.

The engine mirrors the simulator's run architecture:

* **Per-(day, BS) seed streams** — every work unit draws from its own
  ``np.random.SeedSequence`` stream derived from the root seed and the
  unit's identity alone (:func:`unit_seed`), so the campaign is
  bit-identical for any unit order, chunking, or worker count.  Unit
  streams run on the SFC64 bit generator (:func:`unit_rng`), whose raw
  float32 fill is ~1.8x faster than PCG64 — the uniform draw is the
  engine's second-largest cost.  The engine derives a chunk's unit
  states in bulk (:func:`unit_states`), bit-identical to seeding each
  unit on its own.  The historical single-shared-RNG loop
  (kept as :func:`generate_campaign_reference`) silently depended on dict
  iteration order and could never match a parallel run.
* **Fused one-pass sampling** — each session consumes exactly ONE float32
  uniform.  Its top 14 bits select a bucket of the flattened (service,
  mixture-component) cell CDF: buckets lying fully inside one cell
  resolve service and component with a single table gather, and the low
  10 bits pick a quantized-normal z-bin whose volume and duration are
  precomputed per cell (:class:`FusedTables`).  The small remainder —
  buckets straddling a cell boundary, plus the two extreme z-bins, where
  tail fidelity matters — takes an exact float64 inverse-CDF path.
  Arrivals, bodies and day-boundary truncation all happen in one tiled
  pass writing straight into caller-provided
  :class:`~repro.dataset.records.SessionArena` slices: no per-chunk
  temporaries, allocations amortized to zero.
* **Arena-backed chunked output** —
  :meth:`TrafficGenerator.iter_campaign_chunks` partitions the campaign
  into chunks of a configurable expected session count and reuses one
  arena across all of them, so a consumer that drops each chunk keeps
  peak memory bounded at 45-day × thousands-of-BS scale.  Nothing is
  stored: every chunk regenerates byte for byte from the root seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..dataset.circadian import MINUTES_PER_DAY, peak_minute_mask
from ..dataset.records import SERVICE_NAMES, SessionArena, SessionTable
from ..pipeline.context import _key_word, coerce_root_seed, stream_seed
from ..pipeline.executors import ParallelExecutor, SerialExecutor, make_executor
from .arrivals import N_PEAK_MINUTES, ArrivalModel, arrival_counts
from .model_bank import ModelBank
from .service_mix import ServiceMix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

#: Stream label of per-(day, BS) generation RNGs (see :func:`unit_seed`).
UNIT_STREAM = "generate"

#: Seconds in one generated day; sessions whose sampled duration crosses
#: this boundary are flagged ``truncated`` (the paper's transient-session
#: semantics, Section 4.3).
SECONDS_PER_DAY = 86400.0

#: Default expected-sessions budget of one output chunk.
DEFAULT_CHUNK_SESSIONS = 1_000_000

#: (day, BS) units synthesized together in one executor work item; bounds
#: both the pickling payload per task and the transient batch arrays.
BLOCK_UNITS = 16

#: Units per block on the serial path, which pickles nothing: larger
#: blocks spread each block's fixed numpy cost (arrival transform, fused
#: kernel) over more units while the transient draw arrays stay ~2 MB.
SERIAL_BLOCK_UNITS = 64

#: Minute-of-day index reused by every unit's ``np.repeat`` expansion.
_MINUTE_INDEX = np.arange(MINUTES_PER_DAY, dtype=np.int16)

#: ln(10) — volumes/durations are modeled in log10 space but evaluated via
#: the (faster) natural ``exp``.
_LN10 = float(np.log(10.0))

#: Fused-kernel uniform split: the 24 random bits of one float32 uniform
#: are ``(bucket << _ZB_BITS) | z-bin``.  2**14 cell-CDF buckets keep the
#: per-bucket tables L2-resident while leaving only a tiny mixed-bucket
#: fraction; 2**10 z-bins quantize the standard normal finely enough that
#: only the two extreme bins need the exact tail path.
_NB_BITS = 14
_ZB_BITS = 10
_NB = 1 << _NB_BITS
_ZB = 1 << _ZB_BITS

#: float32 scale mapping a uniform to its 24-bit integer (exact: numpy's
#: float32 uniforms are ``k * 2**-24``, so scaling by ``2**24`` only
#: shifts the exponent).
_KSCALE = np.float32(1 << (_NB_BITS + _ZB_BITS))

#: Sessions processed per fused-kernel tile — sized so one tile's scratch
#: stays cache-resident (the full-array form is memory-bandwidth bound
#: and measurably slower).
_TILE = 1 << 17

#: Clip range of the exact path's conditional quantile: the floor is the
#: float32 uniform granularity scaled into a narrow cell, the ceiling the
#: largest double below 1.0 — both keep :func:`_ndtri` finite.
_V_FLOOR = 2.0 ** -33
_V_CEIL = 1.0 - 2.0 ** -53


class GeneratorError(ValueError):
    """Raised on inconsistent generator configuration."""


@dataclass(frozen=True)
class GeneratedDay:
    """Sessions generated for one BS over one day."""

    table: SessionTable
    minute_counts: np.ndarray


def unit_seed(
    root_seed: int, day: int, bs_id: int
) -> np.random.SeedSequence:
    """Seed sequence of one (day, BS) generation work unit.

    Derived from the root seed and the unit's identity alone — the same
    spawn-key scheme :class:`~repro.pipeline.context.RunContext` uses — so
    the unit's sessions are reproducible no matter where, in what order, or
    in which chunk the unit runs.  The engine itself derives unit states in
    bulk with :func:`unit_states`; this is the reference it must equal.
    """
    return stream_seed(root_seed, UNIT_STREAM, day, bs_id)


def unit_rng(root_seed: int, day: int, bs_id: int) -> np.random.Generator:
    """The RNG of one (day, BS) generation work unit.

    Part of the engine's reproducibility contract: a unit regenerated
    standalone through this helper matches its slice of any campaign bit
    for bit.  Runs SFC64 over :func:`unit_seed` — not the ``default_rng``
    PCG64 — because the fused kernel consumes one float32 uniform per
    session and SFC64 fills float32 arrays ~1.8x faster; streams of
    different units stay independent through the seed sequence exactly as
    before.
    """
    return np.random.Generator(
        np.random.SFC64(unit_seed(root_seed, day, bs_id))
    )


# ----------------------------------------------------------------------
# Bulk unit seeding
# ----------------------------------------------------------------------
#: Constants of NumPy's ``SeedSequence`` hash (its ``bit_generator``
#: module): entropy mixing (``_A``), state generation (``_B``), the
#: pool-word mix and the xorshift width, plus the pool size in words.
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_XSHIFT = 16
_SS_POOL = 4
_M32 = 0xFFFFFFFF

#: SFC64 discards this many outputs after seeding.
_SFC_WARMUP = 12


def _uint32_words(value: int) -> list[int]:
    """``SeedSequence``'s little-endian uint32 split of one entropy int."""
    words = [] if value else [0]
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _seed_prefix(root_seed: int, day: int) -> tuple[list[int], list[int]]:
    """Entropy pool of ``unit_seed(root_seed, day, ·)`` before the BS word.

    Replays ``SeedSequence.mix_entropy`` in Python integers over every
    entropy word but the last, which is the BS id.  The hash constants
    advance independently of the data, so the four constants the last
    word meets are returned too: ``(pool, consts)``, ``consts`` being
    the constant before each of those four hash steps.
    """
    run = _uint32_words(int(root_seed))
    run += [0] * (_SS_POOL - len(run))
    entropy = (
        run + _uint32_words(_key_word(UNIT_STREAM)) + _uint32_words(int(day))
    )
    const = _SS_INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _SS_MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> _SS_XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_SS_MIX_L * x - _SS_MIX_R * y) & _M32
        return result ^ (result >> _SS_XSHIFT)

    pool = [hashmix(word) for word in entropy[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    consts = []
    for _ in range(_SS_POOL):
        consts.append(const)
        const = (const * _SS_MULT_A) & _M32
    return pool, consts


def unit_states(
    root_seed: int, day: int, bs_ids: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Initial SFC64 states of many units of one (root seed, day).

    Row ``i`` equals ``np.random.SFC64(unit_seed(root_seed, day,
    bs_ids[i])).state["state"]["state"]`` bit for bit, at a fraction of
    the per-unit cost: the entropy pool of the shared (root, stream, day)
    prefix is mixed once, and only the final ``bs_id`` word, the
    ``generate_state(3, uint64)`` hash and SFC64's warm-up rounds run
    vectorized over the block.  Returns an ``(n, 4)`` uint64 array; BS
    ids must fit one uint32 word (the ``bs_id`` column is int32).
    """
    pool, consts = _seed_prefix(root_seed, day)
    bs = np.asarray(bs_ids, dtype=np.int64)
    if bs.size and (bs.min() < 0 or bs.max() > _M32):
        raise GeneratorError("unit BS ids must lie in [0, 2**32)")
    word = bs.astype(np.uint32)
    shift32 = np.uint32(_SS_XSHIFT)
    mixed = []
    for dst in range(_SS_POOL):
        hashed = word ^ np.uint32(consts[dst])
        hashed *= np.uint32((consts[dst] * _SS_MULT_A) & _M32)
        hashed ^= hashed >> shift32
        result = np.uint32((_SS_MIX_L * pool[dst]) & _M32) - (
            np.uint32(_SS_MIX_R) * hashed
        )
        result ^= result >> shift32
        mixed.append(result)
    # generate_state(3, uint64): six uint32 words cycling over the pool,
    # paired little-endian into the three SFC64 seed words.
    const = _SS_INIT_B
    halves = []
    for i in range(6):
        value = mixed[i % _SS_POOL] ^ np.uint32(const)
        const = (const * _SS_MULT_B) & _M32
        value *= np.uint32(const)
        value ^= value >> shift32
        halves.append(value.astype(np.uint64))
    high = np.uint64(32)
    s0 = halves[0] | (halves[1] << high)
    s1 = halves[2] | (halves[3] << high)
    s2 = halves[4] | (halves[5] << high)
    s3 = np.ones_like(s0)
    one, r11, l3 = np.uint64(1), np.uint64(11), np.uint64(3)
    l24, r40 = np.uint64(24), np.uint64(40)
    for _ in range(_SFC_WARMUP):
        tmp = s0 + s1 + s3
        s3 += one
        s0 = s1 ^ (s1 >> r11)
        s1 = s2 + (s2 << l3)
        s2 = ((s2 << l24) | (s2 >> r40)) + tmp
    return np.stack([s0, s1, s2, s3], axis=1)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Vectorized float64, relative error below 1.15e-9 over (0, 1) — ample
    for distribution-level contracts, and keeps the core free of a scipy
    dependency.  Inputs must lie strictly inside (0, 1).
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    plow = 0.02425
    low = p < plow
    high = p > 1.0 - plow
    mid = ~(low | high)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = q * num / den
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[low] = num / den
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[high] = -num / den
    return out


@dataclass(frozen=True)
class BatchSampler:
    """Flattened numpy tables of a (mix, bank) pair for single-pass sampling.

    The service mix and every per-service log-normal mixture component are
    unrolled into one global *cell* table: cell ``i`` is one (service,
    component) pair, carrying the component's volume parameters and the
    service's duration power law.  Its joint probability — the service's
    mix share times the component's mixture weight — becomes one interval
    of a single global CDF, so each session resolves service AND mixture
    component with one ``searchsorted`` over one uniform, followed by flat
    per-cell gathers.  This replaces the per-unique-service Python loop of
    :meth:`~repro.core.model_bank.ModelBank.sample_mixed_sessions` (and its
    nested per-component masking) with a handful of full-batch array ops.

    Cell boundaries that end a service are set to that service's exact
    cumulative mix probability, so the service a uniform resolves to is
    ``mix_cdf.searchsorted(u, side='right')`` — the inverse-CDF draw of
    :meth:`~repro.core.service_mix.ServiceMix.sample`.  Zero-width cells —
    unmodelled or zero-probability services, zero-weight mixture
    components — are dropped outright: ``searchsorted(side='right')`` can
    never land on them, and the fused kernel's exact path divides by
    every cell's width.

    Attributes
    ----------
    mix_cdf:
        Cumulative service-mix probabilities in catalog order (float64).
    cell_cdf:
        Strictly increasing cumulative probability of the selectable
        (service, component) cells (float64, last entry exactly 1.0).
    cell_service:
        Catalog service index of each cell (int16).
    cell_mu / cell_sigma:
        Per-cell log10-volume parameters of Eq (5) (float32).
    cell_log10_alpha / cell_inv_beta:
        Per-cell duration power-law coefficients ``log10(alpha_s)`` and
        ``1/beta_s`` of the Section 5.3 inverse map (float32), pre-shaped
        so durations resolve as one log-space ``exp``.
    """

    mix_cdf: np.ndarray
    cell_cdf: np.ndarray
    cell_service: np.ndarray
    cell_mu: np.ndarray
    cell_sigma: np.ndarray
    cell_log10_alpha: np.ndarray
    cell_inv_beta: np.ndarray

    @classmethod
    def from_models(cls, mix: ServiceMix, bank: ModelBank) -> "BatchSampler":
        """Flatten a service mix and model bank into the cell tables."""
        probs = mix.probabilities()
        if probs.sum() <= 0:
            raise GeneratorError("mix assigns zero total probability")
        # Normalize by the cumulative sum's own last entry — the exact
        # recipe of ``Generator.choice`` — so the final boundary is 1.0 to
        # the bit and service draws match ``ServiceMix.sample``.
        mix_cdf = probs.cumsum()
        mix_cdf /= mix_cdf[-1]

        cdf_parts: list[float] = []
        service_parts: list[int] = []
        mu_parts: list[float] = []
        sigma_parts: list[float] = []
        la_parts: list[float] = []
        ib_parts: list[float] = []
        lo = 0.0
        for idx, name in enumerate(SERVICE_NAMES):
            hi = float(mix_cdf[idx])
            if name in bank:
                model = bank.get(name)
                mixture = model.volume.as_mixture()
                weights = np.asarray(mixture.weights, dtype=float)
                comp_cdf = weights.cumsum()
                comp_cdf /= comp_cdf[-1]
                la = float(np.log10(model.duration.alpha))
                ib = 1.0 / model.duration.beta
                width = hi - lo
                last = len(mixture.components) - 1
                for j, component in enumerate(mixture.components):
                    # The service's closing cell lands exactly on its mix
                    # CDF value: service resolution stays bit-identical to
                    # a searchsorted over ``mix_cdf`` alone.
                    boundary = hi if j == last else lo + comp_cdf[j] * width
                    cdf_parts.append(boundary)
                    service_parts.append(idx)
                    mu_parts.append(component.mu)
                    sigma_parts.append(component.sigma)
                    la_parts.append(la)
                    ib_parts.append(ib)
            lo = hi
        cell_cdf = np.asarray(cdf_parts, dtype=np.float64)
        # Drop zero-width cells (duplicate boundaries): side='right' skips
        # past them, so the owner of each interval — the FIRST cell of any
        # duplicate run — is the one that stays selectable.
        keep = cell_cdf > np.concatenate(([0.0], cell_cdf[:-1]))
        cell_cdf = cell_cdf[keep]
        if len(cell_cdf) == 0 or cell_cdf[-1] != 1.0:
            raise GeneratorError(
                "mix probability mass is not carried by modelled services"
            )
        pick = np.flatnonzero(keep)

        return cls(
            mix_cdf=mix_cdf,
            cell_cdf=cell_cdf,
            cell_service=np.asarray(service_parts, dtype=np.int16)[pick],
            cell_mu=np.asarray(mu_parts, dtype=np.float32)[pick],
            cell_sigma=np.asarray(sigma_parts, dtype=np.float32)[pick],
            cell_log10_alpha=np.asarray(la_parts, dtype=np.float32)[pick],
            cell_inv_beta=np.asarray(ib_parts, dtype=np.float32)[pick],
        )


# ----------------------------------------------------------------------
# Fused one-uniform kernel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedTables:
    """Per-process derived tables of the fused one-uniform kernel.

    Built once per :class:`BatchSampler` content (see
    :func:`fused_tables`), never pickled — each worker process derives its
    own copy from the sampler it receives.

    Attributes
    ----------
    base / svcb:
        Per-bucket payload-row offset (``cell * 2**10``, int32) and
        service index (int16) of the :data:`_NB` uniform buckets; mixed
        buckets — those straddling a cell boundary — point at the NaN
        sentinel payload row and are resolved on the exact path.
    pay:
        Raveled ``(cell + 1, z-bin)`` complex64 payload table — volume in
        the real half, duration in the imaginary half — evaluated at the
        z-bin's midpoint quantile (durations with the one-second floor
        baked in).  Packing both under one index means one random memory
        access per session instead of two, which is the kernel's dominant
        cost.  The extra row and the two extreme z-bin columns have NaN
        volumes so the kernel detects every exact-path session with a
        single ``isnan`` pass.
    cdf64 / lo64 / w64:
        The cell CDF (last entry forced to exactly 1.0) and each cell's
        lower edge and width, float64 — the exact path's inputs.
    mu64 / sg64 / la64 / ib64 / svc16:
        Per-cell model parameters in float64 (cast from the sampler's
        float32 cells, so both paths share identical parameters) plus the
        int16 service index.
    """

    base: np.ndarray
    svcb: np.ndarray
    pay: np.ndarray
    cdf64: np.ndarray
    lo64: np.ndarray
    w64: np.ndarray
    mu64: np.ndarray
    sg64: np.ndarray
    la64: np.ndarray
    ib64: np.ndarray
    svc16: np.ndarray


def _build_fused_tables(sampler: BatchSampler) -> FusedTables:
    """Derive the fused-kernel tables from one sampler's cell tables."""
    cdf64 = sampler.cell_cdf.astype(np.float64, copy=True)
    cdf64[-1] = 1.0
    n_cells = cdf64.shape[0]
    lo64 = np.concatenate(([0.0], cdf64[:-1]))
    w64 = cdf64 - lo64
    mu64 = sampler.cell_mu.astype(np.float64)
    sg64 = sampler.cell_sigma.astype(np.float64)
    la64 = sampler.cell_log10_alpha.astype(np.float64)
    ib64 = sampler.cell_inv_beta.astype(np.float64)

    edges = np.arange(_NB + 1, dtype=np.float64) / _NB
    cell_at = np.minimum(
        cdf64.searchsorted(edges[:-1], side="right"), n_cells - 1
    )
    # A bucket is *pure* when its whole uniform interval maps to one cell
    # under the exact float64 searchsorted — so the fast path and the
    # exact path can never disagree on a pure bucket.
    pure = (lo64[cell_at] <= edges[:-1]) & (cdf64[cell_at] >= edges[1:])
    base = (np.where(pure, cell_at, n_cells) << _ZB_BITS).astype(np.int32)
    svcb = np.where(pure, sampler.cell_service[cell_at], -1).astype(np.int16)

    # Payload tables: volume/duration at each z-bin's midpoint quantile.
    # The low 10 uniform bits are independent of the bucket under the
    # target distribution, so they act as the session's (quantized)
    # standard-normal draw.
    qz = (np.arange(_ZB, dtype=np.float64) + 0.5) / _ZB
    zmid = _ndtri(qz)
    log10_v = mu64[:, None] + sg64[:, None] * zmid[None, :]
    volt = np.empty((n_cells + 1, _ZB), dtype=np.float32)
    volt[:-1] = np.exp(_LN10 * log10_v)
    durt64 = np.exp(_LN10 * (log10_v - la64[:, None]) * ib64[:, None])
    np.maximum(durt64, 1.0, out=durt64)
    durt = np.empty((n_cells + 1, _ZB), dtype=np.float32)
    durt[:-1] = durt64
    durt[-1] = 1.0
    # NaN poison: the sentinel row (mixed buckets) and the two extreme
    # z-bin columns are exactly the sessions the exact path must resolve,
    # so the kernel's fix-mask collapses to one isnan pass over volumes.
    volt[-1] = np.nan
    volt[:, 0] = np.nan
    volt[:, _ZB - 1] = np.nan
    pay = np.empty((n_cells + 1) * _ZB, dtype=np.complex64)
    pay.real = volt.ravel()
    pay.imag = durt.ravel()
    return FusedTables(
        base=base, svcb=svcb, pay=pay,
        cdf64=cdf64, lo64=lo64, w64=w64,
        mu64=mu64, sg64=sg64, la64=la64, ib64=ib64,
        svc16=sampler.cell_service,
    )


#: Per-process cache of derived kernel tables, keyed by sampler content —
#: workers receive freshly unpickled samplers per map call, so
#: identity-based caching would rebuild the tables for every block.
_FUSED_CACHE: dict[bytes, FusedTables] = {}


def fused_tables(sampler: BatchSampler) -> FusedTables:
    """The (per-process cached) fused kernel tables of one sampler."""
    digest = hashlib.sha1()
    for array in (
        sampler.cell_cdf, sampler.cell_service, sampler.cell_mu,
        sampler.cell_sigma, sampler.cell_log10_alpha, sampler.cell_inv_beta,
    ):
        digest.update(array.tobytes())
    key = digest.digest()
    tables = _FUSED_CACHE.get(key)
    if tables is None:
        if len(_FUSED_CACHE) >= 8:
            # repro-lint: disable-next-line=P204 -- content-keyed per-process memo; value is a pure function of the key
            _FUSED_CACHE.clear()
        tables = _build_fused_tables(sampler)
        # repro-lint: disable-next-line=P204 -- content-keyed per-process memo; value is a pure function of the key
        _FUSED_CACHE[key] = tables
    return tables


#: Per-process reusable state: the kernel's tile scratch, this process's
#: block arena (parallel workers), and the per-block uniform buffer.
#: Never pickled; each process grows its own lazily and reuses it forever.
_WORKER_STATE: dict[str, object] = {}


def _scratch() -> dict[str, np.ndarray]:
    """Tile-sized kernel scratch buffers of this process."""
    scratch = _WORKER_STATE.get("scratch")
    if scratch is None:
        scratch = {
            "tt": np.empty(_TILE, dtype=np.float32),
            "kk": np.empty(_TILE, dtype=np.int32),
            "ii": np.empty(_TILE, dtype=np.int32),
            "jj": np.empty(_TILE, dtype=np.int32),
            "bb": np.empty(_TILE, dtype=np.int32),
            "cc": np.empty(_TILE, dtype=np.complex64),
            "ff": np.empty(_TILE, dtype=np.float32),
            "m1": np.empty(_TILE, dtype=bool),
        }
        # repro-lint: disable-next-line=P204 -- per-process scratch reuse; contents are overwritten before every read
        _WORKER_STATE["scratch"] = scratch
    return scratch


def _worker_arena() -> SessionArena:
    """This process's reusable block arena (parallel fan-out path)."""
    arena = _WORKER_STATE.get("arena")
    if arena is None:
        arena = SessionArena(capacity=1 << 16)
        # repro-lint: disable-next-line=P204 -- per-process arena reuse; every block resets it before writing
        _WORKER_STATE["arena"] = arena
    return arena


def _uniform_buffer(n: int) -> np.ndarray:
    """Per-process float32 buffer of at least ``n`` uniforms.

    Grows to the next power of two (at least ``2**17``), so blocks of
    slowly rising size reuse one buffer instead of regrowing it.
    """
    buf = _WORKER_STATE.get("ubuf")
    if buf is None or buf.shape[0] < n:
        size = max(1 << 17, 1 << (n - 1).bit_length())
        buf = np.empty(size, dtype=np.float32)
        # repro-lint: disable-next-line=P204 -- per-process buffer reuse; filled per block before the kernel reads it
        _WORKER_STATE["ubuf"] = buf
    return buf


def _shared_generator() -> tuple[np.random.Generator, np.random.SFC64]:
    """This process's one SFC64 ``Generator``, rewound per unit.

    SFC64 output is fully determined by its state, so setting
    ``bitgen.state`` to a unit's :func:`unit_states` row makes the shared
    generator draw exactly what a fresh :func:`unit_rng` would, without
    building a ``Generator``/``SFC64`` per unit.
    """
    shared = _WORKER_STATE.get("unit_gen")
    if shared is None:
        bitgen = np.random.SFC64(0)
        shared = (np.random.Generator(bitgen), bitgen)
        # repro-lint: disable-next-line=P204 -- per-process generator reuse; state is rewound before every use
        _WORKER_STATE["unit_gen"] = shared
    return shared


def _exact_fix(
    tables: FusedTables,
    u_tile: np.ndarray,
    fix: np.ndarray,
    sv_tile: np.ndarray,
    vol_tile: np.ndarray,
    dur_tile: np.ndarray,
) -> None:
    """Exact float64 inverse-CDF resolution of the kernel's residual rows.

    Covers sessions in mixed buckets (cell ambiguous on the fast path) and
    the two extreme z-bins of pure buckets (where the quantized normal
    would flatten the distribution tails).  The conditional quantile
    within the resolved cell feeds :func:`_ndtri` directly, so the tails
    keep full float64 resolution.
    """
    uu = u_tile[fix].astype(np.float64)
    cells = tables.cdf64.searchsorted(uu, side="right")
    sv_tile[fix] = tables.svc16[cells]
    v = (uu - tables.lo64[cells]) / tables.w64[cells]
    np.clip(v, _V_FLOOR, _V_CEIL, out=v)
    log10_v = tables.mu64[cells] + tables.sg64[cells] * _ndtri(v)
    vol_tile[fix] = np.exp(_LN10 * log10_v)
    dur = np.exp(_LN10 * (log10_v - tables.la64[cells]) * tables.ib64[cells])
    np.maximum(dur, 1.0, out=dur)
    dur_tile[fix] = dur


def _fused_body_kernel(
    tables: FusedTables,
    u: np.ndarray,
    minute: np.ndarray,
    sv: np.ndarray,
    dur: np.ndarray,
    vol: np.ndarray,
    trunc: np.ndarray,
) -> None:
    """One fused pass: uniforms → service, duration, volume, truncation.

    Consumes each session's single float32 uniform and writes the four
    sampled output columns in place (``sv``/``dur``/``vol``/``trunc`` are
    caller-provided slices, typically arena columns).  Runs tile by tile
    over preallocated scratch so every intermediate stays cache-resident;
    the residual exact-path rows (mixed buckets, extreme z-bins — a
    fraction of a percent) are fixed inside each tile before the
    truncation predicate runs.

    The truncation predicate ``dur > 86400 - 60 * minute`` is evaluated
    in float32 — exact, because ``86400 - 60 * minute`` is an integer
    below 2**17 and therefore exactly representable — matching the
    reference float64 predicate ``minute * 60.0 + dur > 86400.0`` bit for
    bit.
    """
    scratch = _scratch()
    n = u.shape[0]
    zb_mask = _ZB - 1
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        m = hi - lo
        tt = scratch["tt"][:m]
        kk = scratch["kk"][:m]
        ii = scratch["ii"][:m]
        jj = scratch["jj"][:m]
        bb = scratch["bb"][:m]
        cf = scratch["cc"][:m].view(np.float32)
        ff = scratch["ff"][:m]
        m1 = scratch["m1"][:m]
        sv_t = sv[lo:hi]
        vol_t = vol[lo:hi]
        dur_t = dur[lo:hi]

        np.multiply(u[lo:hi], _KSCALE, out=tt)
        kk[...] = tt  # exact truncating cast: tt is an integer < 2**24
        np.right_shift(kk, _ZB_BITS, out=ii)
        np.take(tables.svcb, ii, out=sv_t)
        np.take(tables.base, ii, out=bb)
        np.bitwise_and(kk, zb_mask, out=jj)
        np.add(bb, jj, out=bb)
        np.take(tables.pay, bb, out=scratch["cc"][:m])
        np.copyto(vol_t, cf[0::2])
        np.copyto(dur_t, cf[1::2])

        # The NaN-poisoned volume entries mark every exact-path session:
        # mixed buckets (sentinel payload row) and extreme z-bins.
        np.isnan(vol_t, out=m1)
        fix = np.flatnonzero(m1)
        if fix.size:
            _exact_fix(tables, u[lo:hi], fix, sv_t, vol_t, dur_t)

        ff[...] = minute[lo:hi]
        np.multiply(ff, np.float32(-60.0), out=ff)
        np.add(ff, np.float32(SECONDS_PER_DAY), out=ff)
        np.greater(dur_t, ff, out=trunc[lo:hi])


def _generate_block(
    item: tuple[
        BatchSampler,
        list[tuple[int, int, ArrivalModel]],
        np.ndarray,
        SessionArena | None,
    ],
) -> tuple[np.ndarray, ...] | tuple[int, int] | None:
    """Executor work function: synthesize one block of (day, BS) units.

    Each unit draws from its own seed stream in the canonical order —
    its peak-minute normals and night-minute uniforms first, then one
    float32 uniform per session.  ``states`` holds each unit's initial
    SFC64 state (:func:`unit_states`); the one shared generator is
    rewound to it, the raw arrival draws of the whole block become
    counts in one :func:`~repro.core.arrivals.arrival_counts` call, and
    each unit's post-arrival state is then restored to draw its session
    uniforms.  The fused kernel finally resolves the whole block in one
    pass.

    With a shared ``arena`` (serial path), the block appends to it in
    place and returns its ``(lo, hi)`` row range — zero copies.  Without
    one (parallel path), the block fills this worker process's reusable
    arena and returns owning column copies: the pool pickles results and
    may batch several blocks per transfer, so views into the reused arena
    would alias each other.  Returns ``None`` for an all-empty block.
    """
    sampler, units, states, arena = item
    gen, bitgen = _shared_generator()
    n_units = len(units)
    peak_z = np.empty((n_units, N_PEAK_MINUTES))
    night_q = np.empty((n_units, MINUTES_PER_DAY - N_PEAK_MINUTES))
    resume = []
    for i in range(n_units):
        bitgen.state = {
            "bit_generator": "SFC64",
            "state": {"state": states[i]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=peak_z[i])
        gen.random(out=night_q[i])
        resume.append(bitgen.state)
    counts = arrival_counts(
        [arrival for _, _, arrival in units], peak_z, night_q,
        peak_minute_mask(),
    )
    per_unit = counts.sum(axis=1)
    total = int(per_unit.sum())
    if total == 0:
        return None
    shared = arena is not None
    if not shared:
        arena = _worker_arena()
        arena.reset()
    block_lo = len(arena)
    ubuf = _uniform_buffer(total)
    filled = 0
    for i in np.flatnonzero(per_unit):
        n = int(per_unit[i])
        day, bs_id, _ = units[i]
        # Reserving unit by unit grows the arena in the same steps as
        # the units' sizes, not in one block-sized jump.
        unit_rows = arena.reserve(n)
        bitgen.state = resume[i]
        gen.random(out=ubuf[filled : filled + n], dtype=np.float32)
        arena.column("bs_id")[unit_rows] = bs_id
        arena.column("day")[unit_rows] = day
        filled += n
    rows = slice(block_lo, len(arena))
    arena.column("start_minute")[rows] = np.repeat(
        np.tile(_MINUTE_INDEX, n_units), counts.ravel()
    )
    _fused_body_kernel(
        fused_tables(sampler),
        ubuf[:total],
        arena.column("start_minute")[rows],
        arena.column("service_idx")[rows],
        arena.column("duration_s")[rows],
        arena.column("volume_mb")[rows],
        arena.column("truncated")[rows],
    )
    if shared:
        return (rows.start, rows.stop)
    return tuple(
        np.array(arena.column(name)[rows]) for name in SessionTable.COLUMNS
    )


@dataclass(frozen=True)
class CampaignChunk:
    """One memory-bounded piece of a generated campaign.

    Chunks arrive in canonical unit order; concatenating their tables
    yields exactly the unchunked campaign.  When the campaign runs over a
    caller-provided arena, ``table`` is a zero-copy view into it, valid
    until the next chunk is generated.
    """

    index: int
    n_chunks: int
    units: tuple[tuple[int, int], ...]
    table: SessionTable


@dataclass(frozen=True)
class GenerationResult:
    """Totals of one streamed campaign generation run.

    The campaign itself is never kept: its chunks stream through one
    reused arena and are dropped once counted (and, optionally, written
    to a trace).
    """

    n_sessions: int
    total_volume_mb: float
    n_chunks: int


class TrafficGenerator:
    """Generates session-level traffic for a set of BSs.

    Parameters
    ----------
    arrival_models:
        One fitted :class:`ArrivalModel` per generated BS, keyed by the
        BS identifier the output table will carry.
    mix:
        Categorical service mix of new sessions (Section 5.1 breakdown).
    bank:
        Fitted per-service models providing volumes and durations.
    """

    def __init__(
        self,
        arrival_models: dict[int, ArrivalModel],
        mix: ServiceMix,
        bank: ModelBank,
    ):
        if not arrival_models:
            raise GeneratorError("need at least one BS arrival model")
        self._check_mix_covered(mix, bank)
        self.arrival_models = dict(arrival_models)
        self.mix = mix
        self.bank = bank
        self._sampler: BatchSampler | None = None
        self._expected_sessions: dict[int, float] = {}

    @staticmethod
    def _check_mix_covered(mix: ServiceMix, bank: ModelBank) -> None:
        probs = mix.probabilities()
        uncovered = [
            SERVICE_NAMES[i]
            for i, p in enumerate(probs)
            if p > 0 and SERVICE_NAMES[i] not in bank
        ]
        if uncovered:
            raise GeneratorError(
                f"mix emits services without fitted models: {uncovered}"
            )

    def sampler(self) -> BatchSampler:
        """The flattened sampling tables of this generator's models."""
        if self._sampler is None:
            self._sampler = BatchSampler.from_models(self.mix, self.bank)
        return self._sampler

    def restricted(self, bs_ids: Iterable[int]) -> "TrafficGenerator":
        """Sub-generator over some of this generator's BSs.

        It holds only those BSs' arrival models and shares this
        generator's mix, bank, already-built :class:`BatchSampler` and
        planning expectations, so it generates exactly their units of
        this generator's campaigns without flattening the models again —
        the campaign driver ships one per shard.
        """
        bs_ids = list(bs_ids)
        sub = TrafficGenerator(
            {bs_id: self.arrival_models[bs_id] for bs_id in bs_ids},
            self.mix,
            self.bank,
        )
        sub._sampler = self.sampler()
        sub._expected_sessions = {
            bs_id: self.expected_unit_sessions(bs_id) for bs_id in bs_ids
        }
        return sub

    # ------------------------------------------------------------------
    # Per-unit generation
    # ------------------------------------------------------------------
    def generate_bs_day(
        self, bs_id: int, day: int, rng: np.random.Generator
    ) -> GeneratedDay:
        """Generate one day of sessions at one BS.

        Drawing from ``unit_rng(seed, day, bs_id)`` reproduces exactly the
        unit's slice of a campaign generated under root seed ``seed`` —
        the unit consumes its arrival counts first, then one float32
        uniform per session, in that order.
        """
        try:
            arrivals = self.arrival_models[bs_id]
        except KeyError:
            raise GeneratorError(f"no arrival model for BS {bs_id}") from None
        minute_counts = arrivals.sample_day(rng)
        n = int(minute_counts.sum())
        if n == 0:
            return GeneratedDay(SessionTable.empty(), minute_counts)
        u = rng.random(n, dtype=np.float32)
        start_minute = np.repeat(_MINUTE_INDEX, minute_counts)
        service_idx = np.empty(n, dtype=np.int16)
        duration_s = np.empty(n, dtype=np.float32)
        volume_mb = np.empty(n, dtype=np.float32)
        truncated = np.empty(n, dtype=bool)
        _fused_body_kernel(
            fused_tables(self.sampler()),
            u, start_minute, service_idx, duration_s, volume_mb, truncated,
        )
        table = SessionTable(
            service_idx,
            np.full(n, bs_id, dtype=np.int32),
            np.full(n, day, dtype=np.int16),
            start_minute,
            duration_s,
            volume_mb,
            truncated,
        )
        return GeneratedDay(table, minute_counts)

    # ------------------------------------------------------------------
    # Campaign planning
    # ------------------------------------------------------------------
    def campaign_units(self, n_days: int) -> list[tuple[int, int]]:
        """Canonical (day, bs_id) work-unit order of a campaign.

        BS identifiers are sorted, so the campaign does not depend on the
        insertion order of the ``arrival_models`` mapping.
        """
        if n_days < 1:
            raise GeneratorError("n_days must be >= 1")
        bs_order = sorted(self.arrival_models)
        return [(day, bs_id) for day in range(n_days) for bs_id in bs_order]

    def expected_unit_sessions(self, bs_id: int) -> float:
        """Expected sessions of one BS-day under its arrival model.

        The chunk planner uses this to bound each chunk's expected session
        count before anything is sampled.  Pareto night modes with infinite
        mean (shape <= 1) fall back to a finite multiple of their scale.
        Memoized per BS — planning runs once per chunked call, and the
        models are immutable.
        """
        cached = self._expected_sessions.get(bs_id)
        if cached is not None:
            return cached
        try:
            model = self.arrival_models[bs_id]
        except KeyError:
            raise GeneratorError(f"no arrival model for BS {bs_id}") from None
        night_mean = model.night.mean()
        if not np.isfinite(night_mean):
            night_mean = model.night_scale * 4.0
        expected = (
            N_PEAK_MINUTES * model.peak_mu
            + (MINUTES_PER_DAY - N_PEAK_MINUTES) * night_mean
        )
        self._expected_sessions[bs_id] = expected
        return expected

    def plan_chunks(
        self, n_days: int, chunk_sessions: int | None = None
    ) -> list[list[tuple[int, int]]]:
        """Partition the canonical unit list into bounded chunks.

        :meth:`split_units` over :meth:`campaign_units`.
        """
        return self.split_units(self.campaign_units(n_days), chunk_sessions)

    def split_units(
        self,
        units: Iterable[tuple[int, int]],
        chunk_sessions: int | None = None,
    ) -> list[list[tuple[int, int]]]:
        """Greedily split ``units`` into order-preserving bounded chunks.

        Each chunk's *expected* session count stays at or below
        ``chunk_sessions`` (default :data:`DEFAULT_CHUNK_SESSIONS`) except
        when a single unit alone exceeds the budget.  The split depends
        only on the models and the budget — never on sampled data — so
        chunking cannot perturb the generated sessions.  Campaign chunks
        and the campaign driver's per-shard sub-chunks both come from here.
        """
        budget = (
            DEFAULT_CHUNK_SESSIONS if chunk_sessions is None
            else int(chunk_sessions)
        )
        if budget < 1:
            raise GeneratorError("chunk_sessions must be >= 1")
        chunks: list[list[tuple[int, int]]] = []
        current: list[tuple[int, int]] = []
        accumulated = 0.0
        for day, bs_id in units:
            expected = self.expected_unit_sessions(bs_id)
            if current and accumulated + expected > budget:
                chunks.append(current)
                current, accumulated = [], 0.0
            current.append((day, bs_id))
            accumulated += expected
        chunks.append(current)
        return chunks

    def chunk_arena(
        self, plans: Sequence[Sequence[tuple[int, int]]]
    ) -> SessionArena:
        """Fresh arena sized for the largest planned chunk (+8% headroom).

        Sampled counts fluctuate around the expectation, so a modest
        headroom absorbs nearly every chunk; the rare overshoot costs one
        geometric growth, not a failure.
        """
        largest = max(
            sum(self.expected_unit_sessions(bs_id) for _, bs_id in units)
            for units in plans
        )
        return SessionArena(capacity=int(largest * 1.08) + 1024)

    def _generate_chunk(
        self,
        sampler: BatchSampler,
        units: Sequence[tuple[int, int]],
        root_seed: int,
        executor: SerialExecutor | ParallelExecutor,
        arena: SessionArena,
    ) -> tuple[int, int]:
        """Synthesize one chunk into ``arena``; returns its row range.

        The units' initial seed states are derived up front, one
        :func:`unit_states` vector per day, and each block gets its rows.
        Serial executors append block by block straight into the shared
        arena (zero copies, :data:`SERIAL_BLOCK_UNITS` per block);
        parallel executors receive copy-out blocks of :data:`BLOCK_UNITS`
        from the workers' reusable arenas and the parent splices them into
        the chunk arena in input order — byte-identical either way.
        """
        shared = isinstance(executor, SerialExecutor)
        states = np.empty((len(units), 4), dtype=np.uint64)
        by_day: dict[int, list[int]] = {}
        for i, (day, _) in enumerate(units):
            by_day.setdefault(day, []).append(i)
        for day, rows in by_day.items():
            states[rows] = unit_states(
                root_seed, day, [units[i][1] for i in rows]
            )
        step = SERIAL_BLOCK_UNITS if shared else BLOCK_UNITS
        items = []
        for lo in range(0, len(units), step):
            block = [
                (day, bs_id, self.arrival_models[bs_id])
                for day, bs_id in units[lo : lo + step]
            ]
            items.append((
                sampler, block, states[lo : lo + step],
                arena if shared else None,
            ))
        chunk_lo = len(arena)
        results = executor.map(_generate_block, items)
        if not shared:
            for columns in results:
                if columns is None:
                    continue
                rows = arena.reserve(columns[0].shape[0])
                for name, column in zip(SessionTable.COLUMNS, columns):
                    arena.column(name)[rows] = column
        return chunk_lo, len(arena)

    # ------------------------------------------------------------------
    # Campaign generation
    # ------------------------------------------------------------------
    def iter_campaign_chunks(
        self,
        n_days: int,
        seed: int | np.integer | np.random.Generator,
        *,
        executor: SerialExecutor | ParallelExecutor | None = None,
        chunk_sessions: int | None = None,
        telemetry: "Telemetry | None" = None,
        arena: SessionArena | None = None,
    ) -> Iterator[CampaignChunk]:
        """Generate the campaign chunk by chunk, in canonical order.

        Only one chunk's sessions are materialized at a time, so a caller
        that consumes and drops each :class:`CampaignChunk` keeps peak
        memory bounded by ``chunk_sessions`` regardless of campaign scale.
        ``executor`` fans each chunk's unit blocks across workers; the
        output is byte-identical for any worker count or chunk size.

        ``arena`` (optional) is reused across every chunk: each yielded
        chunk's table is then a **zero-copy view** into it, valid only
        until the next chunk is drawn — the bounded-memory streaming
        contract.  Without one, the engine still reuses an internal arena
        but yields owning snapshot tables (safe to keep).

        ``telemetry`` (optional) records one ``chunk`` span per generated
        chunk plus the engine's throughput counters
        (``generator.sessions``, ``generator.chunks``,
        ``generator.units``) and arena gauges (``generator.arena_mb``,
        ``generator.arena_fill``) — strictly out-of-band, the sessions
        are unaffected.
        """
        root_seed = coerce_root_seed(seed)
        plans = self.plan_chunks(n_days, chunk_sessions)
        runner = executor if executor is not None else SerialExecutor()
        sampler = self.sampler()
        obs = telemetry
        zero_copy = arena is not None
        work_arena = arena if zero_copy else self.chunk_arena(plans)
        for index, units in enumerate(plans):
            work_arena.reset()
            if obs:
                with obs.span(
                    f"chunk-{index}", kind="chunk",
                    attrs={"index": index, "units": len(units)},
                ) as span:
                    lo, hi = self._generate_chunk(
                        sampler, units, root_seed, runner, work_arena
                    )
                    span.attrs["sessions"] = hi - lo
                self._record_chunk_metrics(
                    obs, work_arena, hi - lo, len(units)
                )
            else:
                lo, hi = self._generate_chunk(
                    sampler, units, root_seed, runner, work_arena
                )
            table = (
                work_arena.view(lo, hi)
                if zero_copy
                else work_arena.snapshot(lo, hi)
            )
            yield CampaignChunk(
                index=index,
                n_chunks=len(plans),
                units=tuple(units),
                table=table,
            )

    @staticmethod
    def _record_chunk_metrics(
        obs: "Telemetry", arena: SessionArena, sessions: int, units: int
    ) -> None:
        """Commit one chunk's throughput counters and arena gauges."""
        obs.metrics.counter("generator.sessions").inc(sessions)
        obs.metrics.counter("generator.chunks").inc()
        obs.metrics.counter("generator.units").inc(units)
        obs.metrics.gauge("generator.arena_mb").set(
            round(arena.nbytes / (1 << 20), 3)
        )
        obs.metrics.gauge("generator.arena_fill").set(
            round(arena.fill_ratio, 4)
        )

    def generate_campaign(
        self,
        n_days: int,
        rng: int | np.integer | np.random.Generator,
        *,
        executor: SerialExecutor | ParallelExecutor | None = None,
        jobs: int | None = None,
    ) -> SessionTable:
        """Generate ``n_days`` of sessions over every configured BS.

        ``rng`` may be an integer root seed or a ``Generator`` (from which
        one root seed is drawn); every (day, BS) unit then runs on its own
        spawned seed stream, so ``jobs=1`` and ``jobs=N`` runs produce
        byte-identical tables, equal to the concatenated chunks of
        :meth:`iter_campaign_chunks` for any chunk size.  Pass either an
        ``executor`` or a ``jobs`` count (an owned executor is created and
        reaped for the call).

        The whole campaign is materialized: all unit blocks fill one
        expectation-sized arena whose buffers the returned table aliases
        and keeps alive.  For bounded peak memory, consume
        :meth:`iter_campaign_chunks` instead.
        """
        if executor is not None and jobs is not None:
            raise GeneratorError("pass either executor= or jobs=, not both")
        owned = make_executor(jobs) if executor is None and jobs else None
        runner = (
            executor
            if executor is not None
            else owned if owned is not None else SerialExecutor()
        )
        units = self.campaign_units(n_days)
        arena = self.chunk_arena([units])
        try:
            lo, hi = self._generate_chunk(
                self.sampler(), units, coerce_root_seed(rng), runner, arena
            )
            return arena.view(lo, hi)
        finally:
            if owned is not None:
                owned.close()

    def generate_units(
        self,
        units: Sequence[tuple[int, int]],
        seed: int | np.integer | np.random.Generator,
        *,
        arena: SessionArena,
        executor: SerialExecutor | ParallelExecutor | None = None,
    ) -> SessionTable:
        """Generate an explicit (day, BS) unit list into a caller's arena.

        Every unit runs on its own spawned seed stream
        (:func:`unit_seed`), so the rows are byte-identical to the same
        units' slice of any full-campaign run under the same root seed —
        the entry point the sharded campaign driver uses to synthesize
        one shard at a time.  Rows are appended to ``arena`` (the caller
        decides when to :meth:`~repro.dataset.records.SessionArena.reset`
        it) and the returned table is a zero-copy view of the appended
        range, valid until the arena is next reset.
        """
        runner = executor if executor is not None else SerialExecutor()
        lo, hi = self._generate_chunk(
            self.sampler(), list(units), coerce_root_seed(seed), runner, arena
        )
        return arena.view(lo, hi)


def generate_campaign_reference(
    generator: TrafficGenerator, n_days: int, rng: np.random.Generator
) -> SessionTable:
    """Pre-batching reference: the serial per-unit loop on one shared RNG.

    This is the engine's historical implementation, kept as the regression
    baseline: the batched engine must match its output *distribution* (the
    property tests compare service shares, duration maps and volume
    histograms by EMD),
    and the performance benchmark reports its throughput as the speedup
    denominator.  Its shared-RNG design makes results depend on the
    ``arrival_models`` iteration order — exactly the bug the seed-stream
    engine fixes — so it must not be used for new campaigns.
    """
    if n_days < 1:
        raise GeneratorError("n_days must be >= 1")
    pieces = []
    for day in range(n_days):
        for bs_id, arrival in generator.arrival_models.items():
            # The order coupling IS the regression baseline being kept.
            # repro-lint: disable-next-line=D106 -- pinned pre-seed-stream reference
            counts = arrival.sample_day(rng)
            n = int(counts.sum())
            if n == 0:
                pieces.append(SessionTable.empty())
                continue
            start_minute = np.repeat(
                np.arange(MINUTES_PER_DAY, dtype=np.int64), counts
            )
            service_idx, volumes, durations = (
                # repro-lint: disable-next-line=D106 -- same pinned draw.
                generator.bank.sample_mixed_sessions(generator.mix, rng, n)
            )
            pieces.append(
                SessionTable(
                    service_idx=service_idx,
                    bs_id=np.full(n, bs_id, dtype=np.int32),
                    day=np.full(n, day, dtype=np.int16),
                    start_minute=start_minute,
                    duration_s=durations,
                    volume_mb=volumes,
                    truncated=np.zeros(n, dtype=bool),
                )
            )
    return SessionTable.concatenate(pieces)
