"""Tests for the parallel-disk baselines and the algorithm registry."""

from __future__ import annotations

import pytest

from helpers import family_spec, random_instance
from repro.algorithms import (
    ALGORITHM_REGISTRY,
    Aggressive,
    Delay,
    DemandFetch,
    ParallelAggressive,
    ParallelConservative,
    make_algorithm,
)
from repro.algorithms import registry as registry_module
from repro.disksim import ProblemInstance, execute_schedule, simulate
from repro.errors import ConfigurationError
from repro.paging import run_paging
from repro.specs import Registry
from repro.workloads import parallel_disk_example, uniform_random
from repro.workloads.multidisk import striped_instance
from repro.workloads.spec import LAYOUT_BUILDERS, build_workload_instance


def _parallel_instances():
    instances = [parallel_disk_example()]
    for seed, disks in [(1, 2), (2, 3), (3, 4)]:
        sequence = uniform_random(30, 12, seed=seed, prefix=f"p{seed}_")
        instances.append(striped_instance(sequence, 6, 4, disks))
    return instances


class TestParallelAggressive:
    def test_feasible_and_replayable(self):
        for instance in _parallel_instances():
            result = simulate(instance, ParallelAggressive())
            replay = execute_schedule(instance, result.schedule)
            assert replay.stall_time == result.stall_time
            assert result.metrics.peak_cache_used <= instance.cache_size

    def test_uses_multiple_disks(self):
        instance = striped_instance(uniform_random(40, 16, seed=5), 6, 4, 2)
        result = simulate(instance, ParallelAggressive())
        assert set(result.metrics.fetches_per_disk) == {0, 1}

    def test_beats_demand_on_striped_scans(self):
        from repro.workloads import sequential_scan

        instance = striped_instance(sequential_scan(30), 4, 4, 2)
        parallel = simulate(instance, ParallelAggressive()).elapsed_time
        demand = simulate(instance, DemandFetch()).elapsed_time
        assert parallel < demand

    def test_parallelism_helps_over_single_disk_layout(self):
        from repro.workloads import sequential_scan

        sequence = sequential_scan(30)
        one_disk = ProblemInstance.single_disk(sequence, cache_size=4, fetch_time=4)
        two_disks = striped_instance(sequence, 4, 4, 2)
        single = simulate(one_disk, Aggressive()).elapsed_time
        dual = simulate(two_disks, ParallelAggressive()).elapsed_time
        assert dual <= single


class TestOneDiskReduction:
    @pytest.mark.parametrize(
        "parallel_spec, single_spec",
        [("parallel-aggressive", "aggressive"), ("parallel-conservative", "conservative")],
    )
    def test_parallel_form_runs_the_single_disk_form(self, parallel_spec, single_spec):
        """On one disk each parallel baseline makes its single-disk
        strategy's fetches: same schedule, same metrics."""
        for seed in range(100):
            instance = random_instance(seed)
            parallel = simulate(instance, make_algorithm(parallel_spec))
            single = simulate(instance, make_algorithm(single_spec))
            assert parallel.schedule == single.schedule, seed
            assert parallel.metrics == single.metrics, seed


class TestParallelConservative:
    def test_feasible_and_replayable(self):
        for instance in _parallel_instances():
            result = simulate(instance, ParallelConservative())
            replay = execute_schedule(instance, result.schedule)
            assert replay.stall_time == result.stall_time

    def test_not_worse_than_demand(self):
        for instance in _parallel_instances():
            conservative = simulate(instance, ParallelConservative()).elapsed_time
            demand = simulate(instance, DemandFetch()).elapsed_time
            assert conservative <= demand

    @pytest.mark.parametrize("disks", [2, 3])
    @pytest.mark.parametrize("layout", sorted(LAYOUT_BUILDERS))
    def test_makes_exactly_mins_replacements(self, layout, disks):
        """Grouping MIN's plan by disk loses and adds no replacement: the
        fetches are MIN's (block, victim) pairs on every layout."""
        for workload in ("zipf", "mixed"):
            instance = build_workload_instance(
                workload, cache_size=6, fetch_time=3, disks=disks, layout=layout
            )
            paging = run_paging(
                instance.sequence, instance.cache_size, initial_cache=instance.initial_cache
            )
            fetches = simulate(instance, ParallelConservative()).schedule.fetches
            made = sorted((f.block, str(f.victim)) for f in fetches)
            assert made == sorted((block, str(victim)) for _, block, victim in paging.evictions)


class TestRegistry:
    def test_known_names(self):
        names = sorted(ALGORITHM_REGISTRY)
        for expected in ("aggressive", "conservative", "combination", "demand"):
            assert expected in names
        # The non-instantiable "delay:<d>" pseudo-entry is gone; the family
        # is listed under its real name with a parameter schema.
        assert "delay:<d>" not in names
        assert "delay" in names

    def test_make_algorithm(self):
        assert isinstance(make_algorithm("aggressive"), Aggressive)
        delay = make_algorithm("delay:d=5")
        assert isinstance(delay, Delay)
        assert delay.d == 5

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("does-not-exist")

    def test_delay_without_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("delay")
        with pytest.raises(ConfigurationError):
            make_algorithm("delay:x")

    def test_registration(self, monkeypatch):
        # A scratch registry stands in for the module's, so the test never
        # mutates the registry other tests read.
        scratch = Registry("algorithm")
        monkeypatch.setattr(registry_module, "ALGORITHM_REGISTRY", scratch)

        def register():
            scratch.add(
                "custom-aggressive", "custom", Aggressive,
                kind="single-disk", example="custom-aggressive",
            )

        register()
        assert isinstance(make_algorithm("custom-aggressive"), Aggressive)
        with pytest.raises(ConfigurationError, match="already registered"):
            register()


class TestDiskCountGuard:
    """Single-disk algorithms name themselves on a multi-disk instance."""

    @staticmethod
    def _two_disk_instance() -> ProblemInstance:
        return striped_instance(uniform_random(30, 12, seed=4), 4, 3, 2)

    @pytest.mark.parametrize(
        "name",
        [n for n, entry in sorted(ALGORITHM_REGISTRY.items()) if entry.kind == "single-disk"],
    )
    def test_single_disk_entries_reject_two_disks(self, name):
        algorithm = make_algorithm(family_spec(name))
        with pytest.raises(
            ConfigurationError,
            match=f"^{name}\\b.* is a single-disk algorithm but the instance has 2 disks; "
            "use parallel-aggressive or parallel-conservative",
        ):
            simulate(self._two_disk_instance(), algorithm)

    @pytest.mark.parametrize(
        "spec",
        ["demand", "parallel-aggressive", "parallel-conservative"],
    )
    def test_any_layout_algorithms_run_on_two_disks(self, spec):
        instance = self._two_disk_instance()
        result = simulate(instance, make_algorithm(spec))
        assert result.metrics.num_requests == instance.num_requests
