"""Tests for repro.disksim.schedule."""

from __future__ import annotations

import pytest

from repro.core import is_synchronized
from repro.disksim import IntervalFetch, IntervalSchedule, Schedule, TimedFetch
from repro.errors import InvalidScheduleError


class TestTimedSchedule:
    def test_sorted_and_counts(self):
        schedule = Schedule(
            fetch_time=3,
            num_disks=1,
            fetches=(
                TimedFetch(start_time=5, disk=0, block="b"),
                TimedFetch(start_time=0, disk=0, block="a", victim="x"),
            ),
        )
        assert schedule.num_fetches == 2
        assert [op.block for op in schedule.fetches] == ["a", "b"]
        assert schedule.blocks_fetched() == {"a", "b"}
        assert schedule.fetches_starting_at(5)[0].block == "b"

    def test_overlap_on_same_disk_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(
                fetch_time=4,
                num_disks=1,
                fetches=(
                    TimedFetch(start_time=0, disk=0, block="a"),
                    TimedFetch(start_time=2, disk=0, block="b"),
                ),
            )

    def test_overlap_on_different_disks_allowed(self):
        schedule = Schedule(
            fetch_time=4,
            num_disks=2,
            fetches=(
                TimedFetch(start_time=0, disk=0, block="a"),
                TimedFetch(start_time=2, disk=1, block="b"),
            ),
        )
        assert schedule.num_fetches == 2
        assert not is_synchronized(schedule)

    def test_synchronized_detection(self):
        schedule = Schedule(
            fetch_time=4,
            num_disks=2,
            fetches=(
                TimedFetch(start_time=0, disk=0, block="a"),
                TimedFetch(start_time=0, disk=1, block="b"),
                TimedFetch(start_time=6, disk=0, block="c"),
            ),
        )
        assert is_synchronized(schedule)

    def test_unknown_disk_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(
                fetch_time=2,
                num_disks=1,
                fetches=(TimedFetch(start_time=0, disk=1, block="a"),),
            )

    def test_extra_cache_structural_bound(self):
        schedule = Schedule(
            fetch_time=2,
            num_disks=1,
            fetches=(
                TimedFetch(start_time=0, disk=0, block="a", victim=None),
                TimedFetch(start_time=3, disk=0, block="b", victim="a"),
            ),
            initial_cache=frozenset({"x", "y"}),
        )
        assert schedule.extra_cache_used(base_capacity=2) == 1
        assert schedule.extra_cache_used(base_capacity=3) == 0

    def test_equality_compares_blocks_and_victims(self):
        def schedule(victim):
            return Schedule(
                fetch_time=2,
                num_disks=1,
                fetches=(
                    TimedFetch(start_time=0, disk=0, block="a", victim="x"),
                    TimedFetch(start_time=3, disk=0, block="b", victim=victim),
                ),
            )

        assert schedule("a") == schedule("a")
        assert schedule("a") != schedule("x")

    def test_finish_time(self):
        op = TimedFetch(start_time=7, disk=0, block="a")
        assert op.finish_time(4) == 11


class TestIntervalSchedule:
    def test_interval_lengths_and_stall(self):
        op = IntervalFetch(start_pos=2, end_pos=6, disk=0, block="b5", victim="b2")
        assert op.length == 3
        assert op.charged_stall(4) == 1
        assert op.charged_stall(2) == 0

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidScheduleError):
            IntervalFetch(start_pos=3, end_pos=3, disk=0, block="a")

    def test_schedule_validation(self):
        with pytest.raises(InvalidScheduleError):
            IntervalSchedule(
                fetch_time=4,
                num_disks=1,
                num_requests=5,
                fetches=(IntervalFetch(start_pos=0, end_pos=9, disk=0, block="a"),),
            )
        with pytest.raises(InvalidScheduleError):
            IntervalSchedule(
                fetch_time=4,
                num_disks=1,
                num_requests=5,
                fetches=(IntervalFetch(start_pos=0, end_pos=2, disk=3, block="a"),),
            )

    def test_charged_stall_counts_distinct_intervals_once(self):
        schedule = IntervalSchedule(
            fetch_time=4,
            num_disks=2,
            num_requests=10,
            fetches=(
                IntervalFetch(start_pos=1, end_pos=4, disk=0, block="a"),
                IntervalFetch(start_pos=1, end_pos=4, disk=1, block="b"),
                IntervalFetch(start_pos=5, end_pos=10, disk=0, block="c"),
            ),
        )
        # interval (1,4) charged 2 once (not twice), interval (5,10) charged 0.
        assert schedule.charged_stall() == 2
        assert schedule.start_positions() == (1, 5)

    def test_fetches_sorted_canonically(self):
        schedule = IntervalSchedule(
            fetch_time=2,
            num_disks=1,
            num_requests=6,
            fetches=(
                IntervalFetch(start_pos=3, end_pos=5, disk=0, block="b"),
                IntervalFetch(start_pos=0, end_pos=2, disk=0, block="a"),
            ),
        )
        assert [op.block for op in schedule.fetches] == ["a", "b"]
        assert schedule.fetches_starting_at(3)[0].block == "b"
