"""Synthetic request-sequence generators.

These generators provide the workload variety the experiments sweep over:
uniform random references, Zipf-skewed references (a standard stand-in for
file and buffer-pool popularity distributions), sequential and strided scans,
looping scans (the classic pattern where prefetching shines and pure LRU
caching fails), and mixtures of phases with different locality.  All
generators are deterministic given a seed and return
:class:`~repro.disksim.sequence.RequestSequence` objects.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .._typing import BlockId
from ..disksim.sequence import RequestSequence
from ..errors import ConfigurationError

__all__ = [
    "uniform_random",
    "zipf",
    "sequential_scan",
    "strided_scan",
    "looping_scan",
    "mixed_phases",
    "working_set_shift",
    "markov_phases",
    "multiclient_streams",
]


def _block_names(num_blocks: int, prefix: str = "x") -> List[BlockId]:
    return [f"{prefix}{j}" for j in range(num_blocks)]


def _rng(seed: int) -> np.random.Generator:
    """The seeded generator every workload draws from (strict about ``seed``)."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _zipf_weights(count: int, skew: float) -> np.ndarray:
    """Normalised Zipf weights: rank ``j`` (1-based) has weight ``1/j^skew``."""
    with np.errstate(over="ignore"):  # a huge skew sends j^skew to inf: weight 0
        weights = 1.0 / np.power(np.arange(1, count + 1, dtype=float), skew)
    return weights / weights.sum()


def uniform_random(
    num_requests: int, num_blocks: int, *, seed: int = 0, prefix: str = "u"
) -> RequestSequence:
    """Independent uniform references over ``num_blocks`` distinct blocks."""
    if num_requests < 1 or num_blocks < 1:
        raise ConfigurationError("num_requests and num_blocks must be positive")
    rng = _rng(seed)
    names = _block_names(num_blocks, prefix)
    picks = rng.integers(0, num_blocks, size=num_requests)
    return RequestSequence([names[i] for i in picks])


def zipf(
    num_requests: int,
    num_blocks: int,
    *,
    skew: float = 1.0,
    seed: int = 0,
    prefix: str = "z",
) -> RequestSequence:
    """Zipf-distributed references: block ``j`` has weight ``1/(j+1)^skew``.

    ``skew = 0`` degenerates to uniform; ``skew`` around 1 models typical
    file-popularity skew.
    """
    if num_requests < 1 or num_blocks < 1:
        raise ConfigurationError("num_requests and num_blocks must be positive")
    if not skew >= 0:  # also rejects NaN
        raise ConfigurationError(f"skew must be non-negative, got {skew}")
    rng = _rng(seed)
    names = _block_names(num_blocks, prefix)
    picks = rng.choice(num_blocks, size=num_requests, p=_zipf_weights(num_blocks, skew))
    return RequestSequence([names[i] for i in picks])


def sequential_scan(
    num_blocks: int, *, repeats_per_block: int = 1, prefix: str = "s"
) -> RequestSequence:
    """One pass over ``num_blocks`` blocks in order (each block repeated)."""
    if num_blocks < 1 or repeats_per_block < 1:
        raise ConfigurationError("num_blocks and repeats_per_block must be positive")
    names = _block_names(num_blocks, prefix)
    requests: List[BlockId] = []
    for name in names:
        requests.extend([name] * repeats_per_block)
    return RequestSequence(requests)


def strided_scan(
    num_blocks: int, stride: int, num_requests: int, *, prefix: str = "t"
) -> RequestSequence:
    """Visit blocks ``0, stride, 2*stride, ...`` modulo ``num_blocks``."""
    if num_blocks < 1 or stride < 1 or num_requests < 1:
        raise ConfigurationError("num_blocks, stride and num_requests must be positive")
    names = _block_names(num_blocks, prefix)
    return RequestSequence([names[(i * stride) % num_blocks] for i in range(num_requests)])


def looping_scan(
    num_blocks: int, num_loops: int, *, prefix: str = "l"
) -> RequestSequence:
    """Repeatedly scan the same ``num_blocks`` blocks, ``num_loops`` times.

    When the loop is slightly larger than the cache, LRU caching alone keeps
    missing on every request while prefetching can hide most of the latency —
    the canonical motivating pattern for integrated prefetching and caching.
    """
    if num_blocks < 1 or num_loops < 1:
        raise ConfigurationError("num_blocks and num_loops must be positive")
    names = _block_names(num_blocks, prefix)
    return RequestSequence(names * num_loops)


def working_set_shift(
    num_phases: int,
    blocks_per_phase: int,
    requests_per_phase: int,
    *,
    overlap: int = 0,
    seed: int = 0,
    prefix: str = "w",
) -> RequestSequence:
    """Random references within a working set that shifts every phase.

    Each phase draws uniformly from its own window of ``blocks_per_phase``
    blocks; consecutive windows share ``overlap`` blocks.  This mimics an
    application moving between data structures and stresses the eviction side
    of integrated prefetching.
    """
    if num_phases < 1 or blocks_per_phase < 1 or requests_per_phase < 1:
        raise ConfigurationError("phase parameters must be positive")
    if not 0 <= overlap < blocks_per_phase:
        raise ConfigurationError("overlap must lie in [0, blocks_per_phase)")
    rng = _rng(seed)
    requests: List[BlockId] = []
    step = blocks_per_phase - overlap
    for phase in range(num_phases):
        base = phase * step
        names = [f"{prefix}{base + j}" for j in range(blocks_per_phase)]
        picks = rng.integers(0, blocks_per_phase, size=requests_per_phase)
        requests.extend(names[i] for i in picks)
    return RequestSequence(requests)


def markov_phases(
    num_requests: int,
    num_blocks: int,
    *,
    window: int = 12,
    locality: float = 0.9,
    switch: float = 0.05,
    seed: int = 0,
    prefix: str = "m",
) -> RequestSequence:
    """Markov-modulated phase locality: a hot window that jumps at random instants.

    A two-level reference model: at every request the process stays in its
    current locality phase with probability ``1 - switch`` or jumps the hot
    window to a uniformly random position.  Within a phase, a request falls
    inside the ``window``-block hot set with probability ``locality`` and is
    uniform over all ``num_blocks`` otherwise.  Unlike
    :func:`working_set_shift`, phase lengths are geometrically distributed —
    the workload interleaves long stable stretches (where caching wins) with
    bursts of rapid shifts (where prefetching must restock the cache).
    """
    if num_requests < 1 or num_blocks < 1:
        raise ConfigurationError("num_requests and num_blocks must be positive")
    if not 1 <= window <= num_blocks:
        raise ConfigurationError("window must lie in [1, num_blocks]")
    if not 0.0 <= locality <= 1.0 or not 0.0 <= switch <= 1.0:
        raise ConfigurationError("locality and switch must lie in [0, 1]")
    rng = _rng(seed)
    names = _block_names(num_blocks, prefix)
    start = int(rng.integers(0, num_blocks))
    requests: List[BlockId] = []
    for _ in range(num_requests):
        if rng.random() < switch:
            start = int(rng.integers(0, num_blocks))
        if rng.random() < locality:
            requests.append(names[(start + int(rng.integers(0, window))) % num_blocks])
        else:
            requests.append(names[int(rng.integers(0, num_blocks))])
    return RequestSequence(requests)


def multiclient_streams(
    num_clients: int,
    num_requests: int,
    *,
    blocks_per_client: int = 20,
    shared_blocks: int = 10,
    shared_fraction: float = 0.3,
    skew: float = 0.8,
    seed: int = 0,
    prefix: str = "mc",
) -> RequestSequence:
    """Interleaved per-client reference streams emulating many concurrent users.

    Each of ``num_clients`` clients owns a private region of
    ``blocks_per_client`` blocks it references with Zipf popularity ``skew``;
    with probability ``shared_fraction`` a request instead hits a global hot
    set of ``shared_blocks`` blocks (indexes, catalogs).  Requests arrive from
    a uniformly random client, so the streams interleave arbitrarily — the
    shared cache sees per-client locality diluted by the concurrency, the
    regime a production buffer pool actually operates in.
    """
    if num_clients < 1 or num_requests < 1 or blocks_per_client < 1:
        raise ConfigurationError("num_clients, num_requests and blocks_per_client must be positive")
    if shared_blocks < 0:
        raise ConfigurationError("shared_blocks must be non-negative")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ConfigurationError("shared_fraction must lie in [0, 1]")
    if shared_fraction > 0 and shared_blocks == 0:
        raise ConfigurationError("shared_fraction > 0 needs shared_blocks >= 1")
    if not skew >= 0:  # also rejects NaN
        raise ConfigurationError(f"skew must be non-negative, got {skew}")
    rng = _rng(seed)
    private_weights = _zipf_weights(blocks_per_client, skew)
    shared_names = [f"{prefix}_sh{j}" for j in range(shared_blocks)]
    shared_weights = _zipf_weights(shared_blocks, skew) if shared_blocks else None
    client_names = [
        [f"{prefix}{c}_{j}" for j in range(blocks_per_client)] for c in range(num_clients)
    ]
    requests: List[BlockId] = []
    for _ in range(num_requests):
        if shared_weights is not None and rng.random() < shared_fraction:
            requests.append(shared_names[int(rng.choice(shared_blocks, p=shared_weights))])
        else:
            client = int(rng.integers(0, num_clients))
            requests.append(
                client_names[client][int(rng.choice(blocks_per_client, p=private_weights))]
            )
    return RequestSequence(requests)


def mixed_phases(
    parts: Sequence[RequestSequence], *, interleave: bool = False, seed: int = 0
) -> RequestSequence:
    """Combine several generated sequences into one workload.

    With ``interleave=False`` the parts are concatenated; with
    ``interleave=True`` requests are merged in random order while preserving
    the relative order within each part (a crude model of concurrent request
    streams sharing one cache).
    """
    if not parts:
        raise ConfigurationError("need at least one part")
    if not interleave:
        combined = parts[0]
        for part in parts[1:]:
            combined = combined.concat(part)
        return combined
    rng = _rng(seed)
    cursors = [0] * len(parts)
    remaining = sum(len(p) for p in parts)
    requests: List[BlockId] = []
    while remaining > 0:
        weights = np.array([len(p) - c for p, c in zip(parts, cursors)], dtype=float)
        weights /= weights.sum()
        idx = int(rng.choice(len(parts), p=weights))
        requests.append(parts[idx][cursors[idx]])
        cursors[idx] += 1
        remaining -= 1
    return RequestSequence(requests)
