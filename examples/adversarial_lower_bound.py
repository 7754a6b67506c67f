#!/usr/bin/env python3
"""The Theorem 2 adversarial construction, phase by phase.

Builds the lower-bound request sequence for a chosen (k, F), runs Aggressive
on it, and prints the per-phase accounting the proof uses: Aggressive needs
about k + l + F time units per phase while the optimum needs k + l + 2, which
pushes Aggressive's ratio towards min{1 + F/(k + (k-1)/(F-1)), 2}.

Run with:  python examples/adversarial_lower_bound.py
"""

from repro.algorithms import Aggressive
from repro.analysis import format_table
from repro.core.bounds import SingleDiskBounds
from repro.core.phases import phase_breakdown
from repro.disksim import simulate
from repro.lp import optimal_single_disk
from repro.workloads import theorem2_sequence


def main() -> None:
    cache_size, fetch_time, phases = 13, 4, 6
    construction = theorem2_sequence(cache_size, fetch_time, phases)
    instance = construction.instance
    bounds = SingleDiskBounds(cache_size, fetch_time)

    aggressive = simulate(instance, Aggressive(), record_events=True)
    optimum = optimal_single_disk(instance)

    print(f"instance: {instance.describe()}")
    print(
        f"phase length k + l = {construction.phase_length} "
        f"(l = (k-1)/(F-1) = {construction.blocks_per_phase} new blocks per phase)\n"
    )
    print(
        format_table(
            [
                {
                    "quantity": "Aggressive elapsed",
                    "predicted (per proof)": phases * construction.aggressive_time_per_phase,
                    "measured": aggressive.elapsed_time,
                },
                {
                    "quantity": "Optimal elapsed",
                    "predicted (per proof)": phases * construction.optimal_time_per_phase,
                    "measured": optimum.elapsed_time,
                },
                {
                    "quantity": "ratio",
                    "predicted (per proof)": round(construction.predicted_ratio, 4),
                    "measured": round(aggressive.elapsed_time / optimum.elapsed_time, 4),
                },
            ]
        )
    )
    print(
        f"\nTheorem 2 asymptotic bound: {bounds.aggressive_lower:.4f}   "
        f"Theorem 1 upper bound: {bounds.aggressive_refined:.4f}"
    )

    breakdown = phase_breakdown(aggressive)
    print("\nAggressive's stall per (refined) phase:", list(breakdown.stall_per_phase))
    print("Every phase loses about F =", fetch_time, "time units, exactly as the proof charges.")


if __name__ == "__main__":
    main()
