"""Eviction-policy protocol for pure paging (caching without prefetching).

The integrated prefetching/caching algorithms of the paper lean on classical
paging in two places: the *Conservative* algorithm performs exactly the block
replacements of Belady's optimal offline algorithm MIN, and the experiments
use pure demand paging with MIN replacement as a no-prefetching baseline.
This module defines the small protocol MIN implements plus a reference
demand-paging simulator for fault counting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .._typing import BlockId
from ..disksim.sequence import RequestSequence
from ..errors import ConfigurationError

__all__ = ["EvictionPolicy", "PagingResult", "run_paging"]


class EvictionPolicy(ABC):
    """A replacement policy for classical demand paging.

    The policy is consulted only on a fault with a full cache and must name
    the resident block to evict.  Policies may keep internal state; ``reset``
    is called before each run.
    """

    #: Human-readable policy name used in reports.
    name: str = "eviction-policy"

    @abstractmethod
    def reset(self, sequence: RequestSequence, cache_size: int) -> None:
        """Prepare for a fresh run over ``sequence`` with ``cache_size`` slots."""

    @abstractmethod
    def choose_victim(
        self, position: int, resident: Set[BlockId], requested: BlockId
    ) -> BlockId:
        """Victim to evict when ``requested`` faults at ``position`` with a full cache."""

    def on_access(self, position: int, block: BlockId, hit: bool) -> None:
        """Hook invoked on every access (hit or miss); default: no-op."""


@dataclass(frozen=True)
class PagingResult:
    """Outcome of a pure demand-paging run."""

    faults: int
    hits: int
    evictions: Tuple[Tuple[int, BlockId, Optional[BlockId]], ...]
    """One entry per fault: (position, faulting block, evicted block or None)."""

    final_cache: frozenset

    @property
    def fault_rate(self) -> float:
        """Fraction of requests that faulted."""
        total = self.faults + self.hits
        return self.faults / total if total else 0.0

    def eviction_at(self, position: int) -> Optional[BlockId]:
        """Block evicted by the fault at ``position`` (None if no eviction there)."""
        for pos, _, victim in self.evictions:
            if pos == position:
                return victim
        return None


def run_paging(
    sequence: RequestSequence | Sequence[BlockId],
    cache_size: int,
    policy: EvictionPolicy,
    initial_cache: Sequence[BlockId] = (),
) -> PagingResult:
    """Simulate classical demand paging (no prefetching, no fetch latency).

    Every fault costs one eviction when the cache is full; the fetched block
    is usable immediately.  This is the textbook paging model — it is used by
    Conservative to precompute MIN's replacement decisions and by the analysis
    harness as a latency-free baseline.
    """
    seq = sequence if isinstance(sequence, RequestSequence) else RequestSequence(sequence)
    if cache_size < 1:
        raise ConfigurationError(f"cache_size must be >= 1, got {cache_size}")
    resident: Set[BlockId] = set(initial_cache)
    if len(resident) > cache_size:
        raise ConfigurationError(
            f"initial cache holds {len(resident)} blocks, capacity is {cache_size}"
        )
    policy.reset(seq, cache_size)

    faults = 0
    hits = 0
    evictions: List[Tuple[int, BlockId, Optional[BlockId]]] = []
    for position, block in enumerate(seq):
        if block in resident:
            hits += 1
            policy.on_access(position, block, True)
            continue
        faults += 1
        policy.on_access(position, block, False)
        victim: Optional[BlockId] = None
        if len(resident) >= cache_size:
            victim = policy.choose_victim(position, resident, block)
            if victim not in resident:
                raise ConfigurationError(
                    f"policy {policy.name} evicted non-resident block {victim!r}"
                )
            resident.discard(victim)
        resident.add(block)
        evictions.append((position, block, victim))

    return PagingResult(
        faults=faults,
        hits=hits,
        evictions=tuple(evictions),
        final_cache=frozenset(resident),
    )
