"""E10 — ablation: the LP routes to an optimal schedule against brute force,
and the cached optimum pipeline makes repeated ratio sweeps >= 2x faster.

Part one compares, on tiny instances, (a) the LP relaxation, a lower bound
on every synchronized schedule, (b) the exact MILP (``solve_integral``) on
the same model, which stands in for the paper's Lemma 4 rounding, and (c)
the Theorem 4 schedule of ``optimal_parallel_schedule``, which executes the
extracted schedule, against (d) the brute-force state-space optimum
s_OPT(sigma, k).  By Lemma 3 the MILP objective is at most s_OPT(sigma, k)
and the executed stall at most the MILP objective.  The benchmark also
records how often the relaxation is already integral
(``relaxation_integral``), in which case no MILP is solved.

Part two measures the end-to-end cost of *repeated* ratio sweeps: the
pre-optimum-service path re-solved every instance's LP on every run, while
the batched runner with ``compute_optimum=True`` and a cache directory
solves each LP once and serves every re-run from the fingerprinted caches.
The acceptance bar (asserted) is a >= 2x speedup on re-runs.

Part three solves the optima of the ``ratios-lp`` benchmark's instances
(``zipf:n={80,160},blocks=30``, k=8, F=4, seeds 0-3; the reduced, normalised
models the optimum service solves) both ways: ``solve_integral``, which fixes
variables by the relaxation's reduced costs, and one plain ``milp`` call.
The objectives must be equal (asserted).  The table records how often the
relaxation's bound ``LB`` was tight (the optimum equals ``ceil(LB)``), the
share of variables fixed, whether the fallback to the plain MILP ran, and
both solve times (not asserted).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import optimize

from repro.analysis import brute_force_optimal_stall, format_table
from repro.analysis.runner import ExperimentSpec, run_experiments
from repro.disksim import DiskLayout, ProblemInstance, RequestSequence, simulate
from repro.algorithms import make_algorithm
from repro.lp import (
    SynchronizedLPModel,
    normalize_instance,
    optimal_parallel_schedule,
    optimal_single_disk,
    solve_integral,
    solve_relaxation,
)
from repro.workloads import uniform_random
from repro.workloads.spec import build_workload_instance

from conftest import emit


def _instances():
    cases = {}
    cases["single disk, warm"] = ProblemInstance.single_disk(
        RequestSequence(["a", "b", "c", "a", "d", "b", "a", "c"]),
        cache_size=3,
        fetch_time=3,
        initial_cache=["a", "b", "c"],
    )
    cases["single disk, cold"] = ProblemInstance.single_disk(
        uniform_random(12, 5, seed=2, prefix="e10_"), cache_size=3, fetch_time=2
    )
    cases["two disks"] = ProblemInstance.parallel_disk(
        RequestSequence(["a", "x", "b", "y", "c", "a", "x", "b"]),
        cache_size=3,
        fetch_time=3,
        layout=DiskLayout.partitioned([["a", "b", "c"], ["x", "y"]]),
        initial_cache=["a", "x", "b"],
    )
    return cases


def test_e10_lp_vs_milp_vs_brute_force(benchmark):
    instances = _instances()

    def run():
        out = {}
        for label, instance in instances.items():
            model = SynchronizedLPModel(instance)
            relaxation = solve_relaxation(model)
            out[label] = {
                "relaxation": relaxation,
                "milp": solve_integral(model, relaxation),
                "optimum": optimal_parallel_schedule(instance),
            }
        return out

    solved = benchmark(run)

    rows = []
    for label, instance in instances.items():
        brute = brute_force_optimal_stall(instance)
        relaxation = solved[label]["relaxation"]
        milp = solved[label]["milp"]
        optimum = solved[label]["optimum"]
        rows.append(
            {
                "instance": label,
                "brute_force_s_OPT(k)": brute.stall_time,
                "lp_relaxation": round(relaxation.objective, 3),
                "relaxation_integral": relaxation.is_integral,
                "milp_objective": round(milp.objective, 3),
                "optimum_stall": optimum.stall_time,
                "optimum_method": optimum.method_used,
            }
        )
        assert relaxation.objective <= milp.objective + 1e-6
        assert milp.objective <= brute.stall_time + 1e-6
        assert optimum.stall_time <= milp.objective + 1e-6
        assert optimum.extra_cache_used <= instance.num_disks - 1
    emit("E10: LP relaxation vs exact MILP vs Theorem 4 schedule vs brute force", format_table(rows))


RATIO_WORKLOADS = (
    "loop:blocks=10,loops=4",
    "zipf:n=50,blocks=12",
    "scan:blocks=18",
    "uniform:n=40,blocks=10",
)
RATIO_ALGORITHMS = ("aggressive", "conservative", "delay:d=2")
REPEATS = 3


def test_e10b_cached_ratio_sweep_speedup(tmp_path):
    """Repeated ratio sweeps through the optimum pipeline are >= 2x faster
    than the pre-service path (one LP per point per run, no caching)."""
    spec = ExperimentSpec(
        name="e10b",
        workloads=RATIO_WORKLOADS,
        cache_sizes=(4,),
        fetch_times=(3,),
        algorithms=RATIO_ALGORITHMS,
        compute_optimum=True,
    )

    # Pre-PR shape: every repeat re-solves every instance's LP and re-runs
    # every simulation, serially and uncached.
    started = time.perf_counter()
    for _ in range(REPEATS):
        for workload in RATIO_WORKLOADS:
            instance = build_workload_instance(workload, cache_size=4, fetch_time=3)
            optimum = optimal_single_disk(instance)
            for algorithm in RATIO_ALGORITHMS:
                result = simulate(instance, make_algorithm(algorithm))
                assert result.elapsed_time >= optimum.elapsed_time
    legacy_seconds = time.perf_counter() - started

    # Pipeline shape: first run warms the result + optimum caches, repeats
    # are pure cache hits.
    warm = run_experiments(spec, cache_dir=tmp_path)
    assert all(record.optimal_elapsed is not None for record in warm)
    started = time.perf_counter()
    for _ in range(REPEATS):
        rerun = run_experiments(spec, cache_dir=tmp_path)
        assert rerun.cached_points == len(rerun.records)
    cached_seconds = time.perf_counter() - started

    speedup = legacy_seconds / max(cached_seconds, 1e-9)
    emit(
        "E10b: repeated ratio sweeps — cached pipeline vs pre-service path",
        format_table(
            [
                {
                    "repeats": REPEATS,
                    "points": len(warm.records),
                    "legacy_seconds": round(legacy_seconds, 3),
                    "cached_seconds": round(cached_seconds, 3),
                    "speedup": round(speedup, 1),
                }
            ]
        ),
    )
    assert speedup >= 2.0, f"cached ratio sweeps only {speedup:.1f}x faster"


SCALE_SEEDS = (0, 1, 2, 3)
SCALE_SIZES = (80, 160)


def _plain_milp(milp, model):
    """The optimum without fixing: one ``milp`` call over bounds [0, 1]."""
    A_eq, b_eq = model.equality_system()
    A_ub, b_ub = model.inequality_system()
    result = milp(
        c=model.objective,
        constraints=[
            optimize.LinearConstraint(A_eq, b_eq, b_eq),
            optimize.LinearConstraint(A_ub, -np.inf, b_ub),
        ],
        integrality=np.ones(model.num_variables),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert result.success
    return round(result.fun)


def test_e10c_fixed_milp_at_benchmark_scale(monkeypatch):
    """The fixed MILP finds the plain MILP's optimum on ratios-lp's instances."""
    plain_milp = optimize.milp
    fixed_per_call = []

    def counting_milp(*args, **kwargs):
        bounds = kwargs["bounds"]
        fixed_per_call.append(int(np.sum(bounds.lb > 0) + np.sum(bounds.ub < 1)))
        return plain_milp(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", counting_milp)
    rows = []
    for seed in SCALE_SEEDS:
        for n in SCALE_SIZES:
            instance = normalize_instance(
                build_workload_instance(
                    f"zipf:n={n},blocks=30,seed={seed}", cache_size=8, fetch_time=4
                )
            )
            model = SynchronizedLPModel(instance, aggregate_never_requested=True)
            relaxation = solve_relaxation(model)
            row = {
                "seed": seed,
                "n": n,
                "LB": round(relaxation.objective, 3),
                "ceil_LB": math.ceil(relaxation.objective - 1e-7),
                "relaxation_integral": relaxation.is_integral,
            }
            if relaxation.is_integral:
                # The drivers solve no MILP: the relaxation is the optimum.
                row.update(optimum=round(relaxation.objective), fixed_share="-",
                           fallback="-", fixed_s="-", plain_s="-")
                rows.append(row)
                continue
            fixed_per_call.clear()
            started = time.perf_counter()
            fixed = solve_integral(model, relaxation)
            fixed_seconds = time.perf_counter() - started
            started = time.perf_counter()
            plain = _plain_milp(plain_milp, model)
            plain_seconds = time.perf_counter() - started
            assert round(fixed.objective) == plain
            row.update(
                optimum=plain,
                fixed_share=round(fixed_per_call[0] / model.num_variables, 3),
                fallback=len(fixed_per_call) > 1,
                fixed_s=round(fixed_seconds, 2),
                plain_s=round(plain_seconds, 2),
            )
            rows.append(row)
    emit(
        "E10c: reduced-cost-fixed MILP vs plain MILP on ratios-lp's instances "
        "(zipf blocks=30, k=8, F=4)",
        format_table(rows),
    )
