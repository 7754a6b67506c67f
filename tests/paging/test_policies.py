"""Tests for the classical paging substrate: MIN (run_paging)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disksim import RequestSequence
from repro.errors import ConfigurationError
from repro.paging import run_paging


class TestRunPaging:
    def test_simple_min_run(self):
        seq = RequestSequence(["a", "b", "c", "a", "b", "d", "a"])
        result = run_paging(seq, 2)
        assert result.faults + result.hits == len(seq)
        assert result.faults == len(result.evictions)
        assert 0 < result.faults <= len(seq)

    def test_initial_cache_reduces_faults(self):
        seq = RequestSequence(["a", "b", "a", "b"])
        cold = run_paging(seq, 2)
        warm = run_paging(seq, 2, initial_cache=["a", "b"])
        assert cold.faults == 2
        assert warm.faults == 0

    def test_eviction_record(self):
        seq = RequestSequence(["a", "b", "c"])
        result = run_paging(seq, 2)
        # free slots for a and b, then c evicts one of them
        assert result.evictions[:2] == ((0, "a", None), (1, "b", None))
        position, block, victim = result.evictions[2]
        assert (position, block) == (2, "c") and victim in {"a", "b"}

    def test_invalid_cache_size(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 0)

    def test_oversized_initial_cache(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 1, initial_cache=["x", "y"])


class TestBelady:
    def test_classic_belady_example(self):
        # The textbook reference string: MIN faults 7 times with 3 frames
        # (LRU faults 10 times, FIFO 9).
        seq = RequestSequence(["a", "b", "c", "d", "a", "b", "e", "a", "b", "c", "d", "e"])
        assert run_paging(seq, 3).faults == 7

    def test_min_evicts_furthest(self):
        seq = RequestSequence(["a", "b", "c", "a", "b"])
        result = run_paging(seq, 2)
        # at the fault for c (position 2), a is next used at 3, b at 4 -> evict b
        assert result.evictions[2] == (2, "c", "b")

    def test_never_requested_again_evicted_first(self):
        seq = RequestSequence(["a", "b", "z", "a", "b", "a", "b"])
        result = run_paging(seq, 2, initial_cache=["a", "b"])
        # the fault for z must evict a or b, then the evicted one faults back once
        assert result.faults == 2


def _reference_paging(sequence, cache_size, choose_victim, warm=()):
    """Demand paging with a pluggable victim rule: (faults, eviction tuples).

    ``choose_victim(sequence, position, resident)`` names the block to evict
    when the request at ``position`` faults with a full cache.
    """
    seq = RequestSequence(sequence)
    resident = set(warm)
    evictions = []
    for position, block in enumerate(seq):
        if block in resident:
            continue
        victim = None
        if len(resident) >= cache_size:
            victim = choose_victim(seq, position, resident)
            resident.discard(victim)
        resident.add(block)
        evictions.append((position, block, victim))
    return len(evictions), tuple(evictions)


def _scan_min(seq, position, resident):
    """MIN by a scan: furthest next use strictly after the fault, ties
    broken by the larger block string (the rule the heap must reproduce)."""
    return max(resident, key=lambda b: (seq.next_use_from(position + 1, b), str(b)))


def _nearest_next_use(seq, position, resident):
    """The resident block requested soonest: MIN's rule reversed."""
    return min(resident, key=lambda b: (seq.next_use_from(position + 1, b), str(b)))


def _random_victim(seed):
    """A random resident block, drawn from a generator seeded per run."""
    rng = random.Random(seed)
    return lambda seq, position, resident: rng.choice(sorted(resident, key=str))


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    cache_size=st.integers(min_value=1, max_value=5),
)
def test_property_min_is_optimal_among_policies(blocks, cache_size):
    """MIN never faults more than any other policy (Belady's optimality)."""
    seq = RequestSequence(blocks)
    min_faults = run_paging(seq, cache_size).faults
    rules = (_nearest_next_use, *(_random_victim(seed) for seed in range(3)))
    for rule in rules:
        faults, _ = _reference_paging(blocks, cache_size, rule)
        assert min_faults <= faults
    # faults are at least the number of distinct blocks beyond the (empty) cache
    assert min_faults >= min(len(set(blocks)), 1)


@st.composite
def _paging_cases(draw):
    """A sequence, a cache size and a warm cache.

    Up to twelve block names, so string order ("b10" < "b2") differs from
    numeric order; the warm cache may hold blocks the sequence never
    requests ("w*"), and every block runs out of further uses near the end,
    so victims often tie on next use and the string tie-break decides.
    """
    num_blocks = draw(st.integers(min_value=1, max_value=12))
    indices = draw(st.lists(st.integers(0, num_blocks - 1), min_size=1, max_size=60))
    cache_size = draw(st.integers(min_value=1, max_value=8))
    pool = [f"b{i}" for i in range(num_blocks)] + [f"w{i}" for i in range(4)]
    warm = draw(st.lists(st.sampled_from(pool), unique=True, max_size=cache_size))
    return [f"b{i}" for i in indices], cache_size, warm


@settings(max_examples=300, deadline=None)
@given(case=_paging_cases())
@example(case=(["b0", "b1", "b0", "b2"], 3, ["w0", "w2", "w1"]))
@example(case=(["b1", "b2", "b10", "b3", "b1"], 2, ["b10", "b9"]))
def test_property_heap_min_equals_scan_rule(case):
    """MIN's lazy heap picks exactly the scan rule's victims, fault by fault."""
    sequence, cache_size, warm = case
    result = run_paging(sequence, cache_size, warm)
    assert (result.faults, result.evictions) == _reference_paging(
        sequence, cache_size, _scan_min, warm
    )
    assert result.hits == len(sequence) - result.faults
