"""Tests for the classical paging substrate (run_paging and MIN)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disksim import RequestSequence
from repro.errors import ConfigurationError
from repro.paging import BeladyMIN, EvictionPolicy, min_fault_count, run_paging


class TestRunPaging:
    def test_simple_min_run(self):
        seq = RequestSequence(["a", "b", "c", "a", "b", "d", "a"])
        result = run_paging(seq, 2, BeladyMIN())
        assert result.faults + result.hits == len(seq)
        assert result.faults == min_fault_count(seq, 2)
        assert 0 < result.fault_rate <= 1

    def test_initial_cache_reduces_faults(self):
        seq = RequestSequence(["a", "b", "a", "b"])
        cold = run_paging(seq, 2, BeladyMIN())
        warm = run_paging(seq, 2, BeladyMIN(), initial_cache=["a", "b"])
        assert cold.faults == 2
        assert warm.faults == 0

    def test_eviction_record(self):
        seq = RequestSequence(["a", "b", "c"])
        result = run_paging(seq, 2, BeladyMIN())
        assert result.eviction_at(2) in {"a", "b"}
        assert result.eviction_at(0) is None  # free slot, no eviction

    def test_invalid_cache_size(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 0, BeladyMIN())

    def test_oversized_initial_cache(self):
        with pytest.raises(ConfigurationError):
            run_paging(["a"], 1, BeladyMIN(), initial_cache=["x", "y"])


class TestBelady:
    def test_classic_belady_example(self):
        # The textbook reference string: MIN faults 7 times with 3 frames
        # (LRU faults 10 times, FIFO 9).
        seq = RequestSequence(["a", "b", "c", "d", "a", "b", "e", "a", "b", "c", "d", "e"])
        assert min_fault_count(seq, 3) == 7

    def test_min_evicts_furthest(self):
        seq = RequestSequence(["a", "b", "c", "a", "b"])
        result = run_paging(seq, 2, BeladyMIN())
        # at the fault for c (position 2), a is next used at 3, b at 4 -> evict b
        assert result.eviction_at(2) == "b"

    def test_never_requested_again_evicted_first(self):
        seq = RequestSequence(["a", "b", "z", "a", "b", "a", "b"])
        result = run_paging(seq, 2, BeladyMIN(), initial_cache=["a", "b"])
        # the fault for z must evict a or b, then the evicted one faults back once
        assert result.faults == 2


class _RandomVictim(EvictionPolicy):
    """Evicts a random resident block, drawn from a seeded generator."""

    name = "random"

    def __init__(self, seed):
        self._seed = seed

    def reset(self, sequence, cache_size):
        self._rng = random.Random(self._seed)

    def choose_victim(self, position, resident, requested):
        return self._rng.choice(sorted(resident, key=str))


class _NearestNextUse(EvictionPolicy):
    """Evicts the resident block requested soonest: MIN's rule reversed."""

    name = "nearest"

    def reset(self, sequence, cache_size):
        self._sequence = sequence

    def choose_victim(self, position, resident, requested):
        seq = self._sequence
        return min(resident, key=lambda b: (seq.next_use_from(position + 1, b), str(b)))


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
    cache_size=st.integers(min_value=1, max_value=5),
)
def test_property_min_is_optimal_among_policies(blocks, cache_size):
    """MIN never faults more than any other policy (Belady's optimality)."""
    seq = RequestSequence(blocks)
    min_faults = run_paging(seq, cache_size, BeladyMIN()).faults
    for policy in (_NearestNextUse(), *(_RandomVictim(seed) for seed in range(3))):
        assert min_faults <= run_paging(seq, cache_size, policy).faults
    # faults are at least the number of distinct blocks beyond the (empty) cache
    assert min_faults >= min(len(set(blocks)), 1)


class _ScanMIN(EvictionPolicy):
    """Reference MIN: scan every resident block on each fault.

    The rule ``BeladyMIN``'s heap must reproduce exactly: furthest next use
    strictly after the fault, ties broken by the larger block string.
    """

    name = "MIN"

    def reset(self, sequence, cache_size):
        self._sequence = sequence

    def choose_victim(self, position, resident, requested):
        seq = self._sequence
        return max(resident, key=lambda b: (seq.next_use_from(position + 1, b), str(b)))


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
    assert run_paging(sequence, cache_size, BeladyMIN(), warm) == run_paging(
        sequence, cache_size, _ScanMIN(), warm
    )
