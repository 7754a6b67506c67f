"""E5 — Conservative's 2-approximation (context from Cao et al.).

Measures Conservative's elapsed-time ratio on random, looping and F >= k
workloads.  Expected shape: always <= 2, approaching 2 only when F is large
relative to the inter-reference distances (the F >= k cyclic scan).  The
ratios are measured on the loop engine; ``engine="auto"`` runs the same
one-disk instances as a replay of MIN's plan, whose records must equal the
loop engine's apart from the ``engine`` field.
"""

from __future__ import annotations

from repro.analysis import evaluate_instances, format_table
from repro.disksim import ProblemInstance
from repro.lp import optimal_single_disk
from repro.workloads import cao_f_ge_k_sequence, looping_scan, zipf

from conftest import emit


def _instances():
    return {
        "zipf k=8 F=4": ProblemInstance.single_disk(
            zipf(60, 16, seed=3, prefix="e5a_"), cache_size=8, fetch_time=4
        ),
        "loop k=6 F=5": ProblemInstance.single_disk(
            looping_scan(8, 6, prefix="e5b_"), cache_size=6, fetch_time=5
        ),
        "cycle F>=k (k=4,F=6)": cao_f_ge_k_sequence(k=4, fetch_time=6, num_cycles=6),
        "cycle F>=k (k=6,F=9)": cao_f_ge_k_sequence(k=6, fetch_time=9, num_cycles=5),
    }


def test_e5_conservative_two_approximation(benchmark):
    instances = _instances()

    def run():
        elapsed = evaluate_instances(
            instances.items(), ["conservative", "demand"]
        ).metric("elapsed_time")
        return {
            label: {
                "conservative": elapsed[f"{label} alg=conservative"],
                "demand": elapsed[f"{label} alg=demand"],
            }
            for label in instances
        }

    measured = benchmark(run)

    rows = []
    for label, instance in instances.items():
        optimum = optimal_single_disk(instance).elapsed_time
        ratio = measured[label]["conservative"] / optimum
        rows.append(
            {
                "workload": label,
                "conservative_ratio": round(ratio, 4),
                "demand_ratio": round(measured[label]["demand"] / optimum, 4),
                "bound": 2.0,
            }
        )
        assert ratio <= 2.0 + 1e-9
    emit("E5: Conservative 2-approximation", format_table(rows))


def _without_engine(record):
    payload = record.to_json_dict()
    del payload["engine"]
    return payload


def test_e5_replay_records_equal_the_loop_engine():
    """The 2-approximation holds on the replay too: its records, the warm
    F >= k cyclic scans included, are the loop engine's apart from ``engine``."""
    instances = list(_instances().items())
    loop = evaluate_instances(instances, ["conservative"]).records
    replay = evaluate_instances(instances, ["conservative"], engine="auto").records
    assert [record.engine for record in replay] == ["replay"] * len(instances)
    assert [_without_engine(r) for r in replay] == [_without_engine(r) for r in loop]
