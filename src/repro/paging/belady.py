"""Belady's optimal offline replacement algorithm MIN.

MIN evicts, on every fault with a full cache, the resident block whose next
reference is furthest in the future (blocks never referenced again are
furthest of all).  Belady (1966) proved MIN minimises the number of faults;
the *Conservative* prefetching algorithm of Cao et al. performs exactly MIN's
replacements while overlapping the fetches with computation as much as the
replacement choice allows.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from .._typing import BlockId
from ..disksim.index import ReversedStr
from ..disksim.sequence import RequestSequence
from .base import EvictionPolicy

__all__ = ["BeladyMIN", "min_fault_count"]


class BeladyMIN(EvictionPolicy):
    """Furthest-in-future replacement (optimal offline paging).

    The victim at a fault on position ``p`` maximises
    ``(next_use_from(p + 1, b), str(b))`` over the resident blocks ``b``.
    Rather than scanning every resident block per fault, the policy keeps a
    lazy max-heap under that key, fed by :meth:`on_access`: each access
    pushes the accessed block keyed by its next use, which is the block's
    key until its next access (the only event that changes it).  ``_key``
    holds each block's current key; an entry whose key is not its block's
    current one was superseded by a later access, or its block was evicted,
    and is dropped when it surfaces.  Warm-cache blocks not accessed yet are
    keyed when a fault first finds them resident.  Every access must be
    reported through :meth:`on_access` before the faults that follow it, as
    :func:`~repro.paging.base.run_paging` and ``DemandFetch`` do.
    """

    name = "MIN"
    #: The sequence's next-use chain, bound by :meth:`reset`.
    _next_use: Callable[[int], int]

    def __init__(self) -> None:
        self._sequence: Optional[RequestSequence] = None
        self._heap: List[Tuple[int, ReversedStr, int, BlockId]] = []
        self._key: Dict[BlockId, int] = {}
        self._counter = 0

    def reset(self, sequence: RequestSequence, cache_size: int) -> None:
        self._sequence = sequence
        self._next_use = sequence.next_use_chain
        self._heap = []
        self._key = {}
        self._counter = 0

    def on_access(self, position: int, block: BlockId, hit: bool) -> None:
        # Called once per request: kept free of helper calls, which would
        # cost as much as the push itself.
        next_use = self._next_use(position)
        self._key[block] = next_use
        self._counter += 1
        heappush(self._heap, (-next_use, ReversedStr(str(block)), self._counter, block))

    def choose_victim(
        self, position: int, resident: Set[BlockId], requested: BlockId
    ) -> BlockId:
        assert self._sequence is not None, "reset() must be called before choose_victim()"
        seq = self._sequence
        heap = self._heap
        key = self._key
        for block in resident.difference(key):
            # Not accessed since the start: its key is its first use after
            # the fault (blocks never requested sort furthest of all).
            key[block] = next_use = seq.next_use_from(position + 1, block)
            self._counter += 1
            heappush(heap, (-next_use, ReversedStr(str(block)), self._counter, block))
        stash = []
        while True:
            stored, _, _, block = heap[0]
            if key.get(block) != -stored:
                heappop(heap)
            elif block not in resident:
                # Held under its current key but not evictable right now: the
                # faulting block itself, or one still in flight.
                stash.append(heappop(heap))
            else:
                break
        for entry in stash:
            heappush(heap, entry)
        del key[block]
        return block


def min_fault_count(
    sequence: RequestSequence,
    cache_size: int,
    initial_cache=(),
) -> int:
    """Number of faults MIN incurs — the offline minimum for demand paging."""
    from .base import run_paging

    return run_paging(sequence, cache_size, BeladyMIN(), initial_cache).faults
