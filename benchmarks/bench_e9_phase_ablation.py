"""E9 — ablation of the Theorem 1 phase length.

The refined analysis partitions the sequence into phases of
``k + ceil(k/F) - 1`` requests (Cao et al. used ``k``) and shows Aggressive
loses at most ``F`` time units per phase.  This ablation measures Aggressive's
per-phase stall under both phase conventions: with the longer phases the
average per-phase stall stays below ``F`` (matching the proof), and because
there are fewer phases the implied ratio ``1 + F/(phase length)`` is tighter.
"""

from __future__ import annotations

from repro.algorithms import Aggressive
from repro.analysis import format_table
from repro.core.phases import phase_breakdown, phase_length
from repro.disksim import ProblemInstance, simulate
from repro.workloads import theorem2_sequence, zipf

from conftest import emit


def _instances():
    return {
        "adversarial k=13 F=4": theorem2_sequence(13, 4, num_phases=6).instance,
        "adversarial k=9 F=3": theorem2_sequence(9, 3, num_phases=6).instance,
        "zipf k=12 F=4": ProblemInstance.single_disk(
            zipf(96, 30, seed=5, prefix="e9_"), cache_size=12, fetch_time=4
        ),
    }


def test_e9_phase_length_ablation(benchmark):
    instances = _instances()

    def run():
        return {
            label: simulate(inst, Aggressive(), record_events=True)
            for label, inst in instances.items()
        }

    results = benchmark(run)

    rows = []
    for label, result in results.items():
        instance = instances[label]
        refined = phase_breakdown(result, refined=True)
        original = phase_breakdown(result, refined=False)
        rows.append(
            {
                "workload": label,
                "phase_len_refined": phase_length(instance.cache_size, instance.fetch_time),
                "phase_len_cao": phase_length(
                    instance.cache_size, instance.fetch_time, refined=False
                ),
                "phases_refined": refined.num_phases,
                "phases_cao": original.num_phases,
                "avg_stall_refined": round(refined.average_stall(), 3),
                "avg_stall_cao": round(original.average_stall(), 3),
                "F": instance.fetch_time,
            }
        )
        # The induction's accounting: on average at most F extra time units per
        # (refined) phase.
        assert refined.average_stall() <= instance.fetch_time + 1e-9
    emit("E9: phase-length ablation for the Theorem 1 analysis", format_table(rows))
