"""E6 — Theorem 4: minimum-stall schedules for parallel disks.

For D in {2, 3, 4}, runs the parallel baselines through the batched
runner's optimum pipeline (``evaluate_instances`` with
``compute_optimum=True``): the Theorem 4 schedule is solved once per
instance by the optimum service and attached to every baseline's record.
Verifies the two guarantees: the schedule's stall time is at most the
unrestricted optimum s_OPT(sigma, k) (certified by brute force on the two
small instances, by the LP lower bound on the larger ones) and its extra
memory usage is at most 2(D-1).  The baselines (parallel Aggressive/Conservative,
demand fetching) give the context of how much the optimal schedule saves.
"""

from __future__ import annotations

from repro.analysis import RunStore, brute_force_optimal_stall, format_table, store_path_for
from repro.disksim import DiskLayout, ProblemInstance, RequestSequence
from repro.lp import OptimumService
from repro.workloads import uniform_random
from repro.workloads.multidisk import striped_instance
from repro.workloads.spec import build_workload_instance

from conftest import emit

BASELINES = ("parallel-aggressive", "parallel-conservative", "demand")


def _tiny_instance() -> ProblemInstance:
    layout = DiskLayout.partitioned([["a", "b", "c"], ["x", "y"]])
    sequence = RequestSequence(["a", "x", "b", "y", "c", "a", "x", "b"])
    return ProblemInstance.parallel_disk(
        sequence, cache_size=3, fetch_time=3, layout=layout, initial_cache=["a", "x", "b"]
    )


#: Instance labels whose Theorem 4 stall is checked against brute force.
CERTIFIED = ("tiny D=2", "loop D=2 partitioned")


def _instances():
    instances = {
        "tiny D=2": _tiny_instance(),
        # Its LP optimum nests fetch intervals that fetch different numbers
        # of blocks on a shared disk; an extraction that swaps whole
        # eviction sets between them replays at stall 30 > s_OPT(k) = 19.
        "loop D=2 partitioned": build_workload_instance(
            "loop:blocks=8,loops=3", cache_size=4, fetch_time=3, disks=2, layout="partitioned"
        ),
    }
    for num_disks in (2, 3, 4):
        sequence = uniform_random(36, 14, seed=num_disks, prefix=f"e6_{num_disks}_")
        instances[f"random D={num_disks}"] = striped_instance(sequence, 6, 4, num_disks)
    return instances


def test_e6_parallel_optimal_stall(benchmark, tmp_path):
    instances = _instances()
    labeled = list(instances.items())

    from repro.analysis import evaluate_instances

    def run():
        return evaluate_instances(
            labeled, list(BASELINES), compute_optimum=True, cache_dir=tmp_path
        )

    results = benchmark(run)

    # The records carry the Theorem 4 stall; the extra-memory guarantee is
    # read off the optimum records, served from the run's store
    # (fingerprint lookups, no re-solve).
    with RunStore(store_path_for(tmp_path)) as store:
        service = OptimumService(store=store)
        optima = {label: service.optimum(instance) for label, instance in instances.items()}
    assert service.solves == 0
    rows = []
    for label, instance in instances.items():
        optimum_record = optima[label]
        baseline_stalls = {
            spec: next(
                r for r in results if r.point == f"{label} alg={spec}"
            ).metrics.stall_time
            for spec in BASELINES
        }
        attached = next(r for r in results if r.point == f"{label} alg={BASELINES[0]}")
        assert attached.optimal_stall == max(optimum_record.stall_time, 0)
        row = {
            "instance": label,
            "D": instance.num_disks,
            "optimal_stall": optimum_record.stall_time,
            "extra_cache": optimum_record.extra_cache_used,
            "allowed_extra": 2 * (instance.num_disks - 1),
            "lp_seconds": round(optimum_record.solve_seconds, 3),
            **baseline_stalls,
        }
        if label in CERTIFIED:
            unrestricted = brute_force_optimal_stall(instance).stall_time
            row["s_OPT(k)"] = unrestricted
            assert optimum_record.stall_time <= unrestricted
        rows.append(row)
        assert optimum_record.extra_cache_used <= 2 * (instance.num_disks - 1)
        assert optimum_record.stall_time <= baseline_stalls["parallel-aggressive"]
    emit("E6: Theorem 4 parallel-disk optimal stall", format_table(rows))
