"""Demand fetching: the no-prefetching baseline.

The processor fetches a block only at the moment it is needed, always paying
the full fetch time ``F`` in stall (after a cold or capacity miss).  The
policy itself never starts a fetch: the engine's forced demand fetch loads
each block at its miss and evicts the resident block whose next use is
furthest away, which is Belady's MIN victim, so the baseline is "optimal
caching, no prefetching".  The integrated algorithms of the paper are
motivated precisely by how much of this stall can be hidden by overlapping
fetches with computation.
"""

from __future__ import annotations

from typing import List

from ..disksim.executor import FetchDecision, PolicyView
from .base import PrefetchAlgorithm

__all__ = ["DemandFetch"]


class DemandFetch(PrefetchAlgorithm):
    """Fetch a block only when the processor already needs it (MIN victims)."""

    name = "demand[MIN]"

    def decide(self, view: PolicyView) -> List[FetchDecision]:
        return []
