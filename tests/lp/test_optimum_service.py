"""Tests for the optimum service: canonical identity, caching, reduced model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lp.service as service_module
from repro.analysis.store import RunStore
from repro.disksim import ProblemInstance
from repro.errors import ConfigurationError
from repro.lp import (
    SOLVER_KEY,
    OptimumService,
    SynchronizedLPModel,
    canonical_payload,
    instance_fingerprint,
    normalize_instance,
    optimal_parallel_schedule,
    optimal_single_disk,
)
from repro.workloads import uniform_random, zipf
from repro.workloads.multidisk import striped_instance


def _instance(seed: int = 0, *, warm=(), n: int = 24, blocks: int = 8, k: int = 4):
    return ProblemInstance.single_disk(
        uniform_random(n, blocks, seed=seed, prefix=f"os{seed}_"),
        cache_size=k,
        fetch_time=3,
        initial_cache=warm,
    )


class TestCanonical:
    def test_normalize_is_identity_on_cold_instances(self):
        instance = _instance()
        assert normalize_instance(instance) is instance

    def test_normalize_renames_only_never_requested_warm_blocks(self):
        instance = _instance(1)
        requested = sorted(instance.requested_blocks, key=str)[:2]
        warm = instance.with_initial_cache(requested + ["ghost_a", "ghost_b"])
        normalized = normalize_instance(warm)
        assert set(requested) <= set(normalized.initial_cache)
        renamed = set(normalized.initial_cache) - set(requested)
        assert renamed == {"__nr0", "__nr1"}
        assert normalized.sequence is warm.sequence
        for block in requested:
            assert normalized.disk_of(block) == warm.disk_of(block)

    def test_equivalent_instances_share_fingerprints(self):
        base = _instance(2)
        requested = sorted(base.requested_blocks, key=str)[:1]
        a = base.with_initial_cache(requested + ["spare_x"])
        b = base.with_initial_cache(requested + ["completely_different_name"])
        assert instance_fingerprint(a) == instance_fingerprint(b)
        assert canonical_payload(a) == canonical_payload(b)

    def test_fingerprint_covers_content_and_solver_config(self):
        instance = _instance(3)
        assert instance_fingerprint(instance) != instance_fingerprint(
            instance.with_cache_size(5)
        )
        # The key of every optimum stored so far: changing it orphans them all.
        assert SOLVER_KEY == "method=auto;extra_cache=default;time_limit=none;reduced=1"
        assert instance_fingerprint(instance, SOLVER_KEY) != instance_fingerprint(instance)
        assert OptimumService().optimum(instance).fingerprint == (
            instance_fingerprint(instance, SOLVER_KEY)
        )

    def test_normalized_optimum_is_unchanged(self):
        """Renaming never-requested warm blocks cannot move the optimum."""
        base = _instance(4, n=18, blocks=6, k=3)
        requested = sorted(base.requested_blocks, key=str)[:1]
        original = base.with_initial_cache(requested + ["ghost_1", "ghost_2"])
        normalized = normalize_instance(original)
        assert (
            optimal_single_disk(original).stall_time
            == optimal_single_disk(normalized).stall_time
        )


class TestServiceCaching:
    def test_memory_cache_deduplicates_solves(self):
        service = OptimumService()
        instance = _instance(5, n=16, blocks=6, k=3)
        first = service.optimum(instance)
        second = service.optimum(instance)
        assert service.solves == 1
        assert first == second

    def test_one_solve_fingerprints_its_instance_once(self, monkeypatch):
        """The service hands the fingerprint it looked up to the solve."""
        calls = []
        original = service_module.instance_fingerprint

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(service_module, "instance_fingerprint", counting)
        instance = ProblemInstance.single_disk(zipf(30, 8, seed=0), cache_size=4, fetch_time=3)
        service = OptimumService()
        record = service.optimum(instance)
        assert service.solves == 1
        assert calls == [(instance, SOLVER_KEY)]
        assert record.fingerprint == original(instance, SOLVER_KEY)

    def test_warmed_cache_never_resolves(self, tmp_path, monkeypatch):
        instance = _instance(7, n=16, blocks=6, k=3)
        with RunStore(tmp_path / "runs.sqlite") as store:
            OptimumService(store=store).optimum(instance)

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("warmed cache must not re-solve the LP")

        monkeypatch.setattr(service_module, "compute_optimum_record", boom)
        with RunStore(tmp_path / "runs.sqlite") as store:
            service = OptimumService(store=store)
            record = service.optimum(instance)
        assert service.solves == 0
        assert record.elapsed_time >= record.num_requests

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        instance = _instance(8, n=16, blocks=6, k=3)
        with RunStore(tmp_path / "runs.sqlite") as store:
            record = OptimumService(store=store).optimum(instance)
            with store._conn:
                store._conn.execute("UPDATE optima SET record = '{not json'")
            fresh = OptimumService(store=store)
            again = fresh.optimum(instance)
            assert fresh.solves == 1
            assert again.stall_time == record.stall_time
            # The re-solve rewrote the row: the next service reads it back.
            healed = OptimumService(store=store)
            assert healed.optimum(instance) == again
            assert healed.solves == 0

    def test_record_round_trips_through_json(self):
        service = OptimumService()
        record = service.optimum(_instance(9, n=14, blocks=5, k=3))
        rebuilt = type(record).from_json_dict(record.as_json_dict())
        assert rebuilt == record

    def test_equivalent_instances_hit_the_same_entry(self):
        base = _instance(10, n=16, blocks=6, k=3)
        requested = sorted(base.requested_blocks, key=str)[:1]
        service = OptimumService()
        first = service.optimum(base.with_initial_cache(requested + ["ghost_a"]))
        second = service.optimum(base.with_initial_cache(requested + ["ghost_b"]))
        assert service.solves == 1
        assert first == second


class TestParallelThroughService:
    def test_matches_the_theorem4_driver(self):
        instance = striped_instance(
            uniform_random(20, 8, seed=11, prefix="svc_"), 4, 3, 2
        )
        record = OptimumService().optimum(instance)
        direct = optimal_parallel_schedule(instance)
        assert record.stall_time == direct.stall_time
        assert record.elapsed_time == direct.elapsed_time
        assert record.extra_cache_used <= 2 * (instance.num_disks - 1)
        assert record.solve_seconds > 0


class TestReducedModel:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=8, max_value=26),
        blocks=st.integers(min_value=3, max_value=8),
        k=st.integers(min_value=2, max_value=5),
        fetch_time=st.integers(min_value=2, max_value=4),
        warm_count=st.integers(min_value=0, max_value=3),
    )
    def test_reduced_and_full_model_certify_the_same_optimum(
        self, seed, n, blocks, k, fetch_time, warm_count
    ):
        """Property: the dominance-pruned model never changes the optimum."""
        sequence = zipf(n, blocks, seed=seed, prefix=f"rm{seed}_")
        warm = [f"warm{i}" for i in range(min(warm_count, k))]
        instance = ProblemInstance.single_disk(
            sequence, cache_size=k, fetch_time=fetch_time, initial_cache=warm
        )
        full = optimal_single_disk(instance, reduced=False)
        pruned = optimal_single_disk(instance, reduced=True)
        assert pruned.stall_time == full.stall_time
        assert pruned.elapsed_time == full.elapsed_time

    def test_reduced_model_is_smaller_on_cold_instances(self):
        instance = _instance(12, n=30, blocks=10, k=6)
        full = SynchronizedLPModel(instance)
        pruned = SynchronizedLPModel(instance, aggregate_never_requested=True)
        assert pruned.num_variables < full.num_variables

    def test_reduced_model_rejected_on_parallel_instances(self):
        instance = striped_instance(
            uniform_random(12, 6, seed=13, prefix="rj_"), 4, 3, 2
        )
        with pytest.raises(ConfigurationError):
            SynchronizedLPModel(instance, aggregate_never_requested=True)
