#!/usr/bin/env python3
"""Compare all single-disk strategies on a database-join style workload.

The workload is a block nested-loop join: the inner relation is rescanned for
every outer block, which is exactly the pattern where integrated prefetching
and caching pays off (keep the hot part of the inner relation resident,
stream the rest).  The script measures every algorithm's elapsed-time ratio
against the exact optimum and prints the Section 2 bounds next to them.

Run with:  python examples/single_disk_comparison.py
"""

from repro.analysis import evaluate_instances, format_ratio_table, format_table
from repro.core.bounds import SingleDiskBounds, best_delay_parameter
from repro.disksim import ProblemInstance
from repro.workloads import database_join_trace


def main() -> None:
    cache_size, fetch_time = 10, 6
    sequence = database_join_trace(outer_blocks=6, inner_blocks=12)
    instance = ProblemInstance.single_disk(sequence, cache_size, fetch_time)

    d0 = best_delay_parameter(fetch_time)
    algorithms = ["demand", "aggressive", "conservative", f"delay:d={d0}", "combination"]
    results = evaluate_instances([("join", instance)], algorithms, compute_optimum=True)
    print(format_ratio_table(results, title="block nested-loop join, single disk"))
    print()
    print(format_table(
        [SingleDiskBounds(cache_size, fetch_time).as_dict()], title="Section 2 bounds"
    ))
    print()
    print(
        "Reading the table: 'demand' pays the full fetch latency on every miss; "
        "the integrated strategies hide most of it, and none exceeds its proven bound."
    )


if __name__ == "__main__":
    main()
