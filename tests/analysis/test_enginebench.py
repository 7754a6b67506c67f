"""The engine benchmark's per-cell statistic: medians over alternating pairs."""

from __future__ import annotations

import pytest

from repro.analysis import enginebench


@pytest.mark.parametrize(
    "pairs, speedup, loop_seconds, batch_seconds",
    [
        # With 4 rows per batch the per-pair speedups are 0.04, 0.08 and
        # 0.06: one fast loop timing cannot decide the cell.
        ([(0.010, 1.0), (0.020, 1.0), (0.030, 2.0)], 0.06, 0.02, 1.0),
        # CI's --reps 2: the per-pair speedups 0.04 and 0.12 give their
        # mean, and so do each side's seconds.
        ([(0.010, 1.0), (0.030, 1.0)], 0.08, 0.02, 1.0),
    ],
    ids=["3-pairs", "2-pairs"],
)
def test_cell_speedup_is_the_median_of_per_pair_speedups(
    monkeypatch, pairs, speedup, loop_seconds, batch_seconds
):
    """The gate reads the median of the per-pair speedups, and the cell
    reports each side's median seconds."""
    monkeypatch.setattr(enginebench, "_time_pairs", lambda instances, spec, reps: pairs)
    report = enginebench.run_engine_benchmark(
        num_requests=50, batch_size=4, include_scan=False, reps=len(pairs)
    )
    assert len(report["results"]) == len(enginebench.WORKLOADS) * len(enginebench.ALGORITHMS)
    for cell in report["results"].values():
        assert cell["vector_batch_speedup"] == speedup
        assert cell["loop_seconds"] == loop_seconds
        assert cell["vector_batch_seconds"] == batch_seconds
    assert report["worst_vector_batch_speedup"] == speedup
