"""Golden bytes: pinned aggregate digests of a small fixed campaign.

The merge-algebra tests compare one code path against another, so a
change that moves every path the same way — a different rounding, bin
rule or hash — passes them all.  These pins catch that: the campaign
below is built from integer draws and exact power-of-two scaling only
(no fitted models, no transcendental functions), so its aggregate bytes
are a pure function of the sketch code.  A pin may change only together
with :data:`~repro.campaign.sketches.SKETCH_FORMAT_VERSION`.

The ``wide`` campaign draws durations up to ~1.1e12 s, so several of its
chunks hold squared durations beyond 2^62 quanta — the exact summation
has to leave ``int64`` there and still produce the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.sketches import (
    DURATION_SQ_QUANTUM_LOG2,
    CampaignAggregate,
)
from repro.dataset.records import SERVICE_NAMES, SessionTable

#: Shards per campaign, chunks per shard and BSs per shard (driver shape).
N_SHARDS, N_CHUNKS, SHARD_BS = 3, 3, 8

#: Pinned ``CampaignAggregate.digest()`` per (seed, largest duration
#: exponent, HLL precision).  Precision 8 leaves 56-bit hash tails, past
#: what one float64 holds exactly.
GOLDEN = {
    (0, 17, 14): (
        "7565bc9e6c7113249dd99d9ae2cf51c6"
        "ca55b90b95a873b1262cdd5502d8183e"
    ),
    (5, 17, 14): (
        "95fb9c7666f42693db5f52ff8cb568d7"
        "a2d96377990fc21d6e3cffb6ada647f1"
    ),
    (9, 40, 14): (
        "30f7233c36a9ce1b5f9a1f37ec641f7a"
        "09020eed31e3143db51fa841ee625032"
    ),
    (9, 40, 8): (
        "3b413c43e6af309864aa9aaa76f8455b"
        "5f3d6e5fe67149bc9980faa459fe69c3"
    ),
}


def _float32_values(rng, n, lowest_exp, highest_exp) -> np.ndarray:
    """Positive float32 values ``m * 2**(e - 24)``, built exactly."""
    mantissa = rng.integers(1, 1 << 24, n).astype(np.float64)
    exponent = rng.integers(lowest_exp, highest_exp + 1, n)
    return np.ldexp(mantissa, exponent - 24).astype(np.float32)


def fixed_chunk(rng, shard: int, highest_exp: int) -> SessionTable:
    """One chunk of sessions of the fixed campaign."""
    n = int(rng.integers(400, 1600))
    return SessionTable(
        rng.integers(0, len(SERVICE_NAMES), n).astype(np.int16),
        (shard * SHARD_BS + rng.integers(0, SHARD_BS, n)).astype(np.int32),
        np.full(n, shard, dtype=np.int16),
        rng.integers(0, 1440, n).astype(np.int16),
        _float32_values(rng, n, 0, highest_exp),
        _float32_values(rng, n, -13, 14),
        rng.integers(0, 2, n).astype(bool),
    )


def fixed_campaign(
    seed: int, highest_exp: int, precision: int = 14
) -> tuple[CampaignAggregate, list]:
    """The campaign's merged aggregate and its chunks, folded like the driver."""
    rng = np.random.default_rng(seed)
    total = CampaignAggregate.empty(precision=precision)
    chunks = []
    for shard in range(N_SHARDS):
        aggregate = CampaignAggregate.empty(precision=precision)
        for _ in range(N_CHUNKS):
            table = fixed_chunk(rng, shard, highest_exp)
            chunks.append(table)
            aggregate.update_table(table)
        aggregate.count_units(SHARD_BS)
        total.merge(aggregate)
    return total, chunks


@pytest.mark.parametrize("seed, highest_exp, precision", sorted(GOLDEN))
def test_fixed_campaign_digest_is_pinned(seed, highest_exp, precision):
    aggregate, _ = fixed_campaign(seed, highest_exp, precision)
    assert aggregate.digest() == GOLDEN[(seed, highest_exp, precision)]


def test_wide_campaign_crosses_the_int64_threshold():
    """The wide seed really exercises squared-duration sums past 2^62."""
    _, chunks = fixed_campaign(9, 40)
    crossing = [
        float(np.square(t.duration_s.astype(np.float64)).max())
        * 2.0**DURATION_SQ_QUANTUM_LOG2
        >= 2.0**62
        for t in chunks
    ]
    assert any(crossing)
