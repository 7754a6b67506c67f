"""Workload generators: paper examples, adversarial constructions, synthetic
and trace-like request streams, and multi-disk placement helpers."""

from .adversarial import (
    Theorem2Construction,
    cao_f_ge_k_sequence,
    theorem2_parameters,
    theorem2_sequence,
)
from .multidisk import (
    contiguous_partitioned_instance,
    first_seen_round_robin_instance,
    hashed_instance,
    partitioned_instance,
    striped_instance,
)
from .paper_examples import (
    parallel_disk_example,
    parallel_disk_example_schedule,
    single_disk_example,
    single_disk_example_good_schedule,
    single_disk_example_greedy_schedule,
)
from .spec import (
    LAYOUT_BUILDERS,
    WORKLOAD_REGISTRY,
    build_workload_instance,
    parse_workload,
)
from .synthetic import (
    looping_scan,
    markov_phases,
    mixed_phases,
    multiclient_streams,
    sequential_scan,
    strided_scan,
    uniform_random,
    working_set_shift,
    zipf,
)
from .traces import (
    database_join_trace,
    file_scan_trace,
    load_trace,
    multimedia_stream_trace,
    save_trace,
)

__all__ = [
    "LAYOUT_BUILDERS",
    "WORKLOAD_REGISTRY",
    "build_workload_instance",
    "parse_workload",
    "Theorem2Construction",
    "cao_f_ge_k_sequence",
    "theorem2_parameters",
    "theorem2_sequence",
    "contiguous_partitioned_instance",
    "first_seen_round_robin_instance",
    "hashed_instance",
    "partitioned_instance",
    "striped_instance",
    "parallel_disk_example",
    "parallel_disk_example_schedule",
    "single_disk_example",
    "single_disk_example_good_schedule",
    "single_disk_example_greedy_schedule",
    "looping_scan",
    "markov_phases",
    "mixed_phases",
    "multiclient_streams",
    "sequential_scan",
    "strided_scan",
    "uniform_random",
    "working_set_shift",
    "zipf",
    "database_join_trace",
    "file_scan_trace",
    "load_trace",
    "multimedia_stream_trace",
    "save_trace",
]
