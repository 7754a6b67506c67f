"""Runtime indices for the simulation engine (see DESIGN.md §4).

The seed engine answered every derived query of the classical algorithms —
*"position of the next request whose block is missing"*, *"resident block
whose next use is furthest away"* — by re-scanning the request sequence at
each decision point, making a single run O(n²·k).  This module provides the
structures that turn those queries into amortised O(log k) operations.
The static per-sequence data they read — the per-block occurrence lists,
first uses and the successor/next-use chain — lives on
:class:`RequestSequence` itself.

* :class:`MissTracker` — dynamic per-run data answering ``next_missing``:
  one lazy min-heap *per disk* over the currently absent blocks, keyed by
  their next occurrence at the moment they became absent.  Each run
  partitions the distinct requested blocks by disk as it seeds the heaps,
  an O(n) pass with nothing kept across runs.  The key
  invariant making laziness sound: the cursor passes a position only by
  *serving* it, which requires the block to be resident — so while a block
  stays absent its stored key cannot be overtaken.  A key only goes stale
  across a present/absent round-trip, in which case a fresher (larger)
  entry exists and the stale one (``key < cursor``) is dropped when it
  surfaces, which in a min-heap it does first.  The hot-path query is a
  heap peek: amortised O(1), O(D) across disks.

* :class:`EvictionHeap` — dynamic per-run data answering *furthest next
  use*: a lazy max-heap over the resident blocks keyed by
  ``(next_use_from(cursor, b), str(b))`` — exactly the ordering the
  classical furthest-next-use eviction rule maximises.  Laziness in a
  max-heap requires stored keys never to *under*-estimate the true key, so
  the engine refreshes a block's entry at the only moment its key can grow:
  when the cursor passes one of its uses, i.e. when that request is served
  (:meth:`EvictionHeap.on_serve`, O(1) via the sequence's next-use chain).
  One push per request plus one per residency change keeps maintenance at
  O(n log k) over a whole run.  The engine builds the heap on the first
  query of a run that needs it, seeded from the resident set at that
  cursor, so runs whose policy never asks (Conservative) pay nothing.

Both are consulted through :class:`~repro.disksim.executor.PolicyView`;
policies never touch them directly.  Belady's MIN
(:func:`repro.paging.run_paging`) is one pass over an :class:`EvictionHeap`
of its own, so the engine's forced demand fetches and MIN's replacements
follow one eviction rule.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import AbstractSet, Iterable, List, Optional, Set, Tuple

from .._typing import INFINITY, BlockId, DiskId
from .disk import DiskLayout
from .sequence import RequestSequence

__all__ = ["MissTracker", "EvictionHeap"]


class MissTracker:
    """Per-run tracker of the next request whose block is absent.

    One lazy min-heap per disk over the absent blocks, keyed by the block's
    next occurrence at the moment it became absent.  See the module
    docstring for why those keys stay exact while a block remains absent.
    The engine reports residency transitions via :meth:`mark_present` (fetch
    started — the block counts as "on its way") and :meth:`mark_absent`
    (victim evicted); serving requests needs no maintenance at all.
    """

    __slots__ = ("_sequence", "_layout", "_heaps", "_absent", "_counter")

    def __init__(
        self,
        sequence: RequestSequence,
        layout: DiskLayout,
        initially_present: Iterable[BlockId],
    ) -> None:
        self._sequence = sequence
        self._layout = layout
        # Entries are (next occurrence, insertion counter, block); the counter
        # avoids comparing raw block ids, which may be of mixed types.
        self._heaps: List[List[Tuple[int, int, BlockId]]] = [
            [] for _ in range(layout.num_disks)
        ]
        self._absent: Set[BlockId] = set()
        self._counter = 0
        present = frozenset(initially_present)
        first_use = sequence.first_use
        for block in sequence.distinct_blocks:
            if block in present:
                continue
            self._absent.add(block)
            self._counter += 1
            self._heaps[layout.disk_of(block)].append((first_use(block), self._counter, block))
        for heap in self._heaps:
            heap.sort()

    def mark_present(self, block: BlockId) -> None:
        """``block`` is resident or in flight from now on (entry dies lazily)."""
        self._absent.discard(block)

    def mark_absent(self, block: BlockId, cursor: int) -> None:
        """``block`` was evicted at ``cursor``; key it by its next occurrence."""
        if block in self._absent:
            return
        self._absent.add(block)
        next_use = self._sequence.next_use_from(cursor, block)
        if next_use >= INFINITY:
            # Never requested again: it can never be the next missing block.
            return
        self._counter += 1
        heappush(self._heaps[self._layout.disk_of(block)], (next_use, self._counter, block))

    def _peek(
        self, disk: DiskId, cursor: int, exclude: AbstractSet[BlockId]
    ) -> Optional[int]:
        """First missing position on ``disk`` (ignoring ``exclude``), or None."""
        heap = self._heaps[disk]
        stash: List[Tuple[int, int, BlockId]] = []
        found: Optional[int] = None
        while heap:
            position, _, block = heap[0]
            if block not in self._absent or position < cursor:
                # Fetched meanwhile, or a stale key from an earlier absence
                # spell (a fresher entry exists deeper in the heap).
                heappop(heap)
                continue
            if block in exclude:
                stash.append(heappop(heap))
                continue
            found = position
            break
        for entry in stash:
            heappush(heap, entry)
        return found

    def next_missing(
        self,
        cursor: int,
        on_disk: Optional[DiskId] = None,
        exclude: Iterable[BlockId] = (),
    ) -> Optional[int]:
        """Position of the next request (``>= cursor``) to an absent block
        not in ``exclude``, optionally restricted to blocks on ``on_disk``."""
        exclude_set = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        if on_disk is not None:
            return self._peek(on_disk, cursor, exclude_set)
        best: Optional[int] = None
        for disk in range(len(self._heaps)):
            position = self._peek(disk, cursor, exclude_set)
            if position is not None and (best is None or position < best):
                best = position
        return best


class ReversedStr:
    """String wrapper with inverted ordering (turns heapq into a max-heap key).

    :class:`EvictionHeap` breaks next-use ties by the larger block string
    this way.
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "ReversedStr") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReversedStr) and self.value == other.value


class EvictionHeap:
    """Lazy max-heap over the resident blocks, keyed by furthest next use.

    The key of block ``b`` at cursor ``c`` is ``(next_use_from(c, b), str(b))``
    — the exact ordering the classical eviction rule and the engine's forced
    demand fetches maximise.  The heap is *lazy*: evictions leave stale
    entries behind, and serving a request re-pushes the served block under
    its new (larger) key, leaving the old entry behind; both kinds of stale
    entry are dropped when they surface.  The caller must invoke
    :meth:`on_serve` for every served request — a stored key is valid exactly
    when its block is resident and the stored use has not been passed, which
    only holds if refreshes happen at every crossing.  Membership truth lives
    in the ``_resident`` mirror maintained via :meth:`add` / :meth:`discard`.
    """

    __slots__ = ("_sequence", "_heap", "_resident", "_counter")

    def __init__(self, sequence: RequestSequence) -> None:
        self._sequence = sequence
        # Entries are (-next_use, reversed str, insertion counter, block); the
        # counter settles the (pathological) tie of two distinct blocks with
        # identical ``str`` and next use without comparing raw block ids,
        # which may be of incomparable types.
        self._heap: List[Tuple[int, ReversedStr, int, BlockId]] = []
        self._resident: Set[BlockId] = set()
        self._counter = 0

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, block: BlockId) -> bool:
        return block in self._resident

    def add(self, block: BlockId, cursor: int) -> None:
        """Mark ``block`` resident and key it at ``cursor``."""
        if block in self._resident:
            return
        self._resident.add(block)
        next_use = self._sequence.next_use_from(cursor, block)
        self._counter += 1
        heappush(self._heap, (-next_use, ReversedStr(str(block)), self._counter, block))

    def discard(self, block: BlockId) -> None:
        """Mark ``block`` no longer resident (its heap entry dies lazily)."""
        self._resident.discard(block)

    def on_serve(self, position: int) -> None:
        """Refresh the served block's key after the request at ``position``.

        Serving is the only event at which a resident block's key grows (its
        next use jumps to the following occurrence), so refreshing here keeps
        every resident block represented by at least one entry with its true
        key; entries left behind underestimate and are dropped when popped.
        """
        block = self._sequence[position]
        if block in self._resident:
            next_use = self._sequence.next_use_chain(position)
            self._counter += 1
            heappush(
                self._heap, (-next_use, ReversedStr(str(block)), self._counter, block)
            )

    def best(self, cursor: int, exclude: Iterable[BlockId] = ()) -> Optional[BlockId]:
        """The resident block (not in ``exclude``) maximising
        ``(next_use_from(cursor, b), str(b))``, or ``None``."""
        exclude_set = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        heap = self._heap
        stash: List[Tuple[int, ReversedStr, int, BlockId]] = []
        found: Optional[BlockId] = None
        while heap:
            stored_next_use, _, _, block = heap[0]
            if block not in self._resident or -stored_next_use < cursor:
                # Evicted meanwhile, or the stored use has been passed (a
                # fresher entry was pushed by on_serve at the crossing or by
                # add on re-fetch, and sorts above this one).
                heappop(heap)
                continue
            if block in exclude_set:
                stash.append(heappop(heap))
                # A block can appear twice (re-keyed or re-fetched); skip all
                # of its copies, they will be pushed back below.
                continue
            found = block
            break
        for entry in stash:
            heappush(heap, entry)
        return found
