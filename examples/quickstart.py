#!/usr/bin/env python3
"""Quickstart: simulate the paper's worked example and find the optimal schedule.

Run with:  python examples/quickstart.py
"""

from repro import ProblemInstance, simulate
from repro.algorithms import Aggressive, Conservative
from repro.lp import optimal_single_disk
from repro.viz import render_gantt


def main() -> None:
    # The single-disk example from the paper's introduction: cache of 4 blocks,
    # fetches take 4 time units, b1..b4 start out resident.
    instance = ProblemInstance.single_disk(
        ["b1", "b2", "b3", "b4", "b4", "b5", "b1", "b4", "b4", "b2"],
        cache_size=4,
        fetch_time=4,
        initial_cache=["b1", "b2", "b3", "b4"],
    )

    print(f"instance: {instance.describe()}\n")

    for algorithm in (Aggressive(), Conservative()):
        result = simulate(instance, algorithm, record_events=True)
        print(f"{result.policy_name:14s} stall={result.stall_time}  elapsed={result.elapsed_time}")
        print(render_gantt(result))
        print()

    optimum = optimal_single_disk(instance)
    print(
        f"optimal        stall={optimum.stall_time}  elapsed={optimum.elapsed_time} "
        "(the paper's better option: fetch b5 at the request to b3, evicting b2)"
    )
    for fetch in optimum.schedule.fetches:
        print(
            f"  fetch {fetch.block} after request {fetch.start_pos}, "
            f"evicting {fetch.victim}, complete before request {fetch.end_pos}"
        )


if __name__ == "__main__":
    main()
