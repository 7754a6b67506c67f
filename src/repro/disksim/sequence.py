"""Request sequences with precomputed next/previous-use indices.

The request sequence is the central input of the integrated prefetching and
caching problem (Cao et al. model): a fully known, offline sequence
``sigma = r_1, ..., r_n`` of block identifiers.  Every algorithm in this
package — Aggressive, Conservative, Delay(d), the LP-based optimal schedulers
— repeatedly asks questions of the form *"when is block b referenced next
after position i?"*.  :class:`RequestSequence` answers those queries in
``O(log n)`` via per-block sorted position lists.

Positions are 0-based throughout the library.  The paper uses 1-based request
indices; the LP module documents the conversion explicitly where it matters.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from typing import Dict, List, Tuple

from .._typing import INFINITY, BlockId
from ..errors import InvalidSequenceError

__all__ = ["RequestSequence"]


class RequestSequence(Sequence[BlockId]):
    """An immutable request sequence with fast next/previous-use queries.

    Parameters
    ----------
    requests:
        Iterable of block identifiers, one per request.  Must be non-empty
        unless ``allow_empty`` is set (empty sequences are occasionally useful
        in tests and as neutral elements when concatenating workloads).

    Notes
    -----
    The class behaves like an immutable ``Sequence[BlockId]``: it supports
    ``len``, indexing, slicing (returning a new :class:`RequestSequence`),
    iteration, equality and hashing.
    """

    __slots__ = ("_requests", "_positions", "_next_use", "_hash")

    def __init__(self, requests: Sequence[BlockId], *, allow_empty: bool = False) -> None:
        reqs: Tuple[BlockId, ...] = tuple(requests)
        if not reqs and not allow_empty:
            raise InvalidSequenceError("request sequence must not be empty")
        for pos, block in enumerate(reqs):
            if block is None:
                raise InvalidSequenceError(f"request {pos} is None")
        self._requests = reqs
        positions: Dict[BlockId, List[int]] = {}
        for pos, block in enumerate(reqs):
            positions.setdefault(block, []).append(pos)
        self._positions = positions
        # next_use[i] = smallest j > i with sigma[j] == sigma[i], else INFINITY.
        next_use: List[int] = [INFINITY] * len(reqs)
        last_seen: Dict[BlockId, int] = {}
        for pos in range(len(reqs) - 1, -1, -1):
            block = reqs[pos]
            next_use[pos] = last_seen.get(block, INFINITY)
            last_seen[block] = pos
        self._next_use = tuple(next_use)
        self._hash: int | None = None

    # -- basic sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __getitem__(self, index: "int | slice") -> "BlockId | RequestSequence":
        if isinstance(index, slice):
            return RequestSequence(self._requests[index], allow_empty=True)
        return self._requests[index]

    def __iter__(self) -> Iterator[BlockId]:
        return iter(self._requests)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestSequence):
            return self._requests == other._requests
        if isinstance(other, (tuple, list)):
            return self._requests == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._requests)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        if len(self._requests) <= 12:
            body = ", ".join(map(str, self._requests))
        else:
            head = ", ".join(map(str, self._requests[:6]))
            tail = ", ".join(map(str, self._requests[-3:]))
            body = f"{head}, ..., {tail}"
        return f"RequestSequence([{body}], n={len(self._requests)})"

    # -- derived data -------------------------------------------------------------

    @property
    def requests(self) -> Tuple[BlockId, ...]:
        """The raw tuple of requested block identifiers."""
        return self._requests

    @property
    def distinct_blocks(self) -> frozenset:
        """Set of distinct blocks referenced by the sequence."""
        return frozenset(self._positions)

    @property
    def num_distinct(self) -> int:
        """Number of distinct blocks referenced by the sequence."""
        return len(self._positions)

    def positions(self, block: BlockId) -> Tuple[int, ...]:
        """All positions (sorted, 0-based) at which ``block`` is requested."""
        return tuple(self._positions.get(block, ()))

    def contains_block(self, block: BlockId) -> bool:
        """Whether ``block`` is requested anywhere in the sequence."""
        return block in self._positions

    def first_use(self, block: BlockId) -> int:
        """Position of the first request to ``block`` (``INFINITY`` if never)."""
        plist = self._positions.get(block)
        return plist[0] if plist else INFINITY

    def last_use(self, block: BlockId) -> int:
        """Position of the last request to ``block`` (``-1`` if never)."""
        plist = self._positions.get(block)
        return plist[-1] if plist else -1

    def next_use_from(self, position: int, block: BlockId) -> int:
        """Smallest position ``>= position`` requesting ``block``.

        Returns :data:`~repro._typing.INFINITY` when the block is not
        requested at or after ``position``.  ``position`` may exceed the
        sequence length (the answer is then ``INFINITY``).
        """
        plist = self._positions.get(block)
        if not plist:
            return INFINITY
        idx = bisect_left(plist, position)
        return plist[idx] if idx < len(plist) else INFINITY

    def next_use_after(self, position: int, block: BlockId) -> int:
        """Smallest position ``> position`` requesting ``block`` (or INFINITY)."""
        return self.next_use_from(position + 1, block)

    def previous_use_before(self, position: int, block: BlockId) -> int:
        """Largest position ``< position`` requesting ``block`` (or ``-1``)."""
        plist = self._positions.get(block)
        if not plist:
            return -1
        idx = bisect_left(plist, position)
        return plist[idx - 1] if idx > 0 else -1

    def next_use_chain(self, position: int) -> int:
        """For the request at ``position``, the next position of the same block.

        Equivalent to ``next_use_after(position, self[position])`` but O(1).
        """
        return self._next_use[position]

    def uses_between(self, block: BlockId, lo: int, hi: int) -> int:
        """Number of requests to ``block`` with position in ``[lo, hi)``."""
        plist = self._positions.get(block)
        if not plist:
            return 0
        return bisect_left(plist, hi) - bisect_left(plist, lo)

    def is_requested_in(self, block: BlockId, lo: int, hi: int) -> bool:
        """Whether ``block`` is requested at some position in ``[lo, hi)``."""
        return self.uses_between(block, lo, hi) > 0

    def distinct_in_window(self, lo: int, hi: int) -> frozenset:
        """Distinct blocks requested at positions in ``[lo, hi)``."""
        lo = max(lo, 0)
        hi = min(hi, len(self._requests))
        return frozenset(self._requests[lo:hi])

    # -- combinators ----------------------------------------------------------------

    def reversed(self) -> "RequestSequence":
        """The reversed sequence (used by the Reverse Aggressive baseline)."""
        return RequestSequence(tuple(reversed(self._requests)), allow_empty=True)

    def concat(self, other: "RequestSequence | Sequence[BlockId]") -> "RequestSequence":
        """Concatenation of two request sequences."""
        other_req = other.requests if isinstance(other, RequestSequence) else tuple(other)
        return RequestSequence(self._requests + tuple(other_req), allow_empty=True)

    def repeat(self, times: int) -> "RequestSequence":
        """The sequence repeated ``times`` times."""
        if times < 0:
            raise InvalidSequenceError("repeat count must be non-negative")
        return RequestSequence(self._requests * times, allow_empty=True)

    def relabelled(self, mapping: Dict[BlockId, BlockId]) -> "RequestSequence":
        """A copy with block identifiers renamed via ``mapping``.

        Blocks not present in ``mapping`` keep their identifier.
        """
        return RequestSequence(
            tuple(mapping.get(b, b) for b in self._requests), allow_empty=True
        )
