"""DemandFetch leaves every fetch to the engine, and that is demand paging.

``DemandFetch.decide`` starts no fetch: the engine's forced demand fetch
loads each block at its miss with the furthest-next-use victim.  The
property below pins that this is exactly demand paging with MIN's victims,
spelled out as an explicit policy, on one disk and on several.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from repro.algorithms import DemandFetch
from repro.disksim import FetchDecision, simulate


class _ExplicitDemandPaging:
    """Fetch the cursor's block when it is absent and its disk is idle,
    evicting the resident block with the furthest next use (larger block
    string on ties) when the cache is full."""

    name = "demand[MIN]"

    def reset(self, instance):
        pass

    def decide(self, view):
        block = view.instance.sequence[view.cursor]
        disk = view.instance.disk_of(block)
        if view.is_available(block) or view.is_in_flight(block) or not view.is_idle(disk):
            return []
        victim = None
        if view.free_slots == 0:
            victim = max(view.resident, key=lambda b: (view.next_use(b), str(b)))
        return [FetchDecision(disk=disk, block=block, victim=victim)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), parallel=st.booleans())
def test_property_demand_fetch_equals_explicit_demand_paging(seed, parallel):
    """Same schedule, metrics and event log on the loop and scan engines."""
    instance = random_instance(seed, parallel=parallel)
    for engine in ("loop", "scan"):
        ours = simulate(instance, DemandFetch(), engine=engine, record_events=True)
        reference = simulate(
            instance, _ExplicitDemandPaging(), engine=engine, record_events=True
        )
        assert ours.schedule == reference.schedule
        assert ours.metrics == reference.metrics
        assert list(ours.events) == list(reference.events)
        assert ours.policy_name == "demand[MIN]"
