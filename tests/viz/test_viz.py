"""Tests for the text visualisation helpers."""

from __future__ import annotations

import pytest

from repro.algorithms import Aggressive, ParallelAggressive
from repro.core import phase_breakdown
from repro.disksim import simulate
from repro.errors import ConfigurationError
from repro.viz import cache_occupancy_trace, render_gantt, render_timeline
from repro.workloads import parallel_disk_example, single_disk_example


@pytest.mark.parametrize(
    "consumer", [render_gantt, render_timeline, cache_occupancy_trace, phase_breakdown]
)
@pytest.mark.parametrize("engine", ["loop", "auto"])
def test_event_consumers_reject_a_run_without_a_log(consumer, engine):
    result = simulate(single_disk_example(), Aggressive(), engine=engine)
    assert result.events is None
    with pytest.raises(ConfigurationError, match="record_events=True"):
        consumer(result)


class TestGantt:
    def test_single_disk_chart_shape(self):
        result = simulate(single_disk_example(), Aggressive(), record_events=True)
        chart = render_gantt(result)
        lines = chart.splitlines()
        assert any(line.startswith("cpu") for line in lines)
        assert any(line.startswith("disk0") for line in lines)
        cpu_line = next(line for line in lines if line.startswith("cpu"))
        # 10 serves and 3 stall units must appear in the cpu row.
        assert cpu_line.count("s") == 10
        assert cpu_line.count("x") == result.stall_time
        assert "legend" in chart

    def test_parallel_chart_has_one_row_per_disk(self):
        result = simulate(parallel_disk_example(), ParallelAggressive(), record_events=True)
        chart = render_gantt(result)
        assert "disk0" in chart and "disk1" in chart

    def test_truncation(self):
        result = simulate(single_disk_example(), Aggressive(), record_events=True)
        chart = render_gantt(result, max_width=5)
        assert "not shown" in chart


class TestTimeline:
    def test_timeline_mentions_all_event_kinds(self):
        result = simulate(single_disk_example(), Aggressive(), record_events=True)
        text = render_timeline(result)
        for keyword in ("serve", "stall", "fetch", "arrive", "evict"):
            assert keyword in text
        assert "stall=3" in text

    def test_timeline_limit(self):
        result = simulate(single_disk_example(), Aggressive(), record_events=True)
        text = render_timeline(result, limit=2)
        assert "more events" in text

    def test_cache_occupancy_trace_peak_matches_metrics(self):
        result = simulate(single_disk_example(), Aggressive(), record_events=True)
        trace = cache_occupancy_trace(result)
        assert max(level for _, level in trace) == result.metrics.peak_cache_used
        assert trace[0] == (0, 4)
