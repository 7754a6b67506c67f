"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.disksim import DiskLayout, ProblemInstance, RequestSequence
from repro.workloads import parallel_disk_example, single_disk_example


@pytest.fixture
def paper_single(request) -> ProblemInstance:
    """The paper's single-disk worked example (k=4, F=4, warm b1..b4)."""
    return single_disk_example()


@pytest.fixture
def paper_parallel() -> ProblemInstance:
    """The paper's two-disk worked example."""
    return parallel_disk_example()


@pytest.fixture
def small_cold_instance() -> ProblemInstance:
    """A small cold-start single-disk instance used across algorithm tests."""
    sequence = RequestSequence(
        ["a", "b", "c", "a", "d", "b", "e", "a", "c", "d", "e", "b", "a", "c"]
    )
    return ProblemInstance.single_disk(sequence, cache_size=3, fetch_time=3)


@pytest.fixture
def small_warm_instance() -> ProblemInstance:
    """A small warm-start instance where prefetching can hide most latency."""
    sequence = RequestSequence(["a", "b", "a", "c", "b", "d", "a", "c", "e", "d", "b", "e"])
    return ProblemInstance.single_disk(
        sequence, cache_size=4, fetch_time=3, initial_cache=["a", "b", "c", "d"]
    )


@pytest.fixture
def small_parallel_instance() -> ProblemInstance:
    """A tiny two-disk instance suitable for the brute-force oracle."""
    layout = DiskLayout.partitioned([["a", "b", "c"], ["x", "y"]])
    sequence = RequestSequence(["a", "x", "b", "y", "c", "a", "x", "b"])
    return ProblemInstance.parallel_disk(
        sequence, cache_size=3, fetch_time=3, layout=layout, initial_cache=["a", "x", "b"]
    )
