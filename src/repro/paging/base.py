"""Belady's MIN for pure paging (caching without prefetching).

The integrated prefetching/caching algorithms of the paper lean on classical
paging in two places: the *Conservative* algorithm performs exactly the block
replacements of Belady's optimal offline algorithm MIN, and demand fetching
is "optimal caching, no prefetching".  MIN evicts, on every fault with a full
cache, the resident block whose next reference is furthest in the future
(blocks never referenced again are furthest of all); Belady (1966) proved it
minimises the number of faults.

:func:`run_paging` computes MIN in one pass over the simulation engine's
:class:`~repro.disksim.index.EvictionHeap`, the furthest-next-use heap whose
victims the event loop's forced demand fetches take, so both baselines rest
on one eviction rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .._typing import BlockId
from ..disksim.index import EvictionHeap
from ..disksim.sequence import RequestSequence
from ..errors import ConfigurationError

__all__ = ["PagingResult", "run_paging"]


@dataclass(frozen=True)
class PagingResult:
    """Outcome of a MIN paging run."""

    faults: int
    hits: int
    evictions: Tuple[Tuple[int, BlockId, Optional[BlockId]], ...]
    """One entry per fault: (position, faulting block, evicted block or None)."""


def run_paging(
    sequence: RequestSequence | Sequence[BlockId],
    cache_size: int,
    initial_cache: Sequence[BlockId] = (),
) -> PagingResult:
    """Simulate demand paging with MIN's replacements (no fetch latency).

    A fault with a full cache evicts the resident block maximising
    ``(next use after the fault, str(block))``; the fetched block is usable
    immediately.  Conservative precomputes its replacements from this.
    """
    seq = sequence if isinstance(sequence, RequestSequence) else RequestSequence(sequence)
    if cache_size < 1:
        raise ConfigurationError(f"cache_size must be >= 1, got {cache_size}")
    heap = EvictionHeap(seq)
    for block in initial_cache:
        heap.add(block, 0)
    if len(heap) > cache_size:
        raise ConfigurationError(
            f"initial cache holds {len(heap)} blocks, capacity is {cache_size}"
        )

    hits = 0
    evictions: List[Tuple[int, BlockId, Optional[BlockId]]] = []
    for position, block in enumerate(seq):
        if block in heap:
            hits += 1
            heap.on_serve(position)
            continue
        victim: Optional[BlockId] = None
        if len(heap) >= cache_size:
            victim = heap.best(position)
            heap.discard(victim)
        heap.add(block, position + 1)
        evictions.append((position, block, victim))

    return PagingResult(faults=len(evictions), hits=hits, evictions=tuple(evictions))
