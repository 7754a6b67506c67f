"""The workload registry: portable, strictly parsed instance descriptions.

Workload specs are small strings like ``zipf:n=200,blocks=50,skew=0.8`` or
``trace:path=/tmp/trace.txt``.  They originated in the CLI, but the batched
experiment runner (:mod:`repro.analysis.runner`) uses them as its *portable
instance description*: a spec string pickles trivially, regenerates the same
sequence deterministically in any worker process (all generators take
explicit seeds), and doubles as a human-readable label and cache key.

Every workload is an entry of :data:`WORKLOAD_REGISTRY`, a
:class:`~repro.specs.Registry` whose typed parameter schemas make parsing
strict by construction: unknown keys, duplicate keys, malformed items and
uncoercible values all raise :class:`~repro.errors.ConfigurationError`
naming the spec and the workload's valid parameters.  A misspelled
parameter can therefore never silently fall back to a default and corrupt a
sweep.  The grammar (``name[:key=value,...]``; values may contain ``=``,
never ``,``) is :mod:`repro.specs`'s, shared with the algorithm registry.

Two kinds of workload exist:

* ``sequence`` — the builder produces a
  :class:`~repro.disksim.sequence.RequestSequence`; cache size, fetch time
  and the disk layout come from the caller (the CLI flags or the experiment
  grid axes).
* ``instance`` — adversarial constructions (``thm2``, ``cao``) whose warm
  initial cache is part of the construction; the builder produces a full
  :class:`~repro.disksim.instance.ProblemInstance`.  ``k``/``F`` may be
  pinned in the spec; otherwise the caller's values flow in, so grids can
  sweep them.

Multi-disk layouts are spec-addressable too: :data:`LAYOUT_BUILDERS` maps
``striped | hashed | roundrobin | partitioned`` to the
:mod:`repro.workloads.multidisk` builders, and
:func:`build_workload_instance` combines workload x layout x disk count
into a ready :class:`ProblemInstance`.  For ``sequence`` kind that is two
steps, generation (:func:`generate_sequence`, which depends on the spec
alone) and placement (:func:`place_sequence`, which adds ``k``, ``F``, the
disk count and the layout), so a caller placing one spec at many grid
points can generate its sequence once.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..disksim.instance import ProblemInstance
from ..disksim.sequence import RequestSequence
from ..errors import ConfigurationError
from ..specs import ParamSpec, Registry, coerce_bool
from .adversarial import cao_f_ge_k_sequence, theorem2_sequence
from .multidisk import (
    contiguous_partitioned_instance,
    first_seen_round_robin_instance,
    hashed_instance,
    striped_instance,
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
)

__all__ = [
    "WORKLOAD_REGISTRY",
    "LAYOUT_BUILDERS",
    "parse_workload",
    "generate_sequence",
    "place_sequence",
    "build_workload_instance",
]


# ---------------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------------

WORKLOAD_REGISTRY = Registry("workload")

WORKLOAD_REGISTRY.add(
    "zipf",
    "Zipf-skewed references over a block population",
    lambda n, blocks, skew, seed: zipf(n, blocks, skew=skew, seed=seed),
    [
        ParamSpec("n", int, 200, "number of requests"),
        ParamSpec("blocks", int, 50, "distinct blocks"),
        ParamSpec("skew", float, 1.0, "Zipf exponent (0 = uniform)"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="zipf:n=500,blocks=100,skew=0.8",
)

WORKLOAD_REGISTRY.add(
    "uniform",
    "Independent uniform references",
    lambda n, blocks, seed: uniform_random(n, blocks, seed=seed),
    [
        ParamSpec("n", int, 200, "number of requests"),
        ParamSpec("blocks", int, 50, "distinct blocks"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="uniform:n=300,blocks=40,seed=2",
)

WORKLOAD_REGISTRY.add(
    "scan",
    "One sequential pass over the blocks",
    lambda blocks, repeats: sequential_scan(blocks, repeats_per_block=repeats),
    [
        ParamSpec("blocks", int, 100, "distinct blocks"),
        ParamSpec("repeats", int, 1, "consecutive repeats per block"),
    ],
    kind="sequence", example="scan:blocks=60",
)

WORKLOAD_REGISTRY.add(
    "strided",
    "Strided scan visiting every stride-th block modulo the population",
    lambda blocks, stride, n: strided_scan(blocks, stride, n),
    [
        ParamSpec("blocks", int, 100, "distinct blocks"),
        ParamSpec("stride", int, 7, "stride between consecutive requests"),
        ParamSpec("n", int, 100, "number of requests"),
    ],
    kind="sequence", example="strided:blocks=64,stride=9,n=200",
)

WORKLOAD_REGISTRY.add(
    "loop",
    "Repeated scans of the same block set (the classic prefetching win)",
    lambda blocks, loops: looping_scan(blocks, loops),
    [
        ParamSpec("blocks", int, 20, "blocks per loop"),
        ParamSpec("loops", int, 5, "number of loop iterations"),
    ],
    kind="sequence", example="loop:blocks=30,loops=10",
)

WORKLOAD_REGISTRY.add(
    "wss",
    "Working-set shift: uniform references in a sliding per-phase window",
    lambda phases, blocks, n, overlap, seed: working_set_shift(
        phases, blocks, n, overlap=overlap, seed=seed
    ),
    [
        ParamSpec("phases", int, 4, "number of phases"),
        ParamSpec("blocks", int, 25, "window size (blocks per phase)"),
        ParamSpec("n", int, 100, "requests per phase"),
        ParamSpec("overlap", int, 5, "blocks shared by consecutive windows"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="wss:phases=6,blocks=20,n=80,overlap=4",
)

WORKLOAD_REGISTRY.add(
    "mixed",
    "Scan + loop + Zipf phases, concatenated or randomly interleaved",
    lambda scan_blocks, loop_blocks, loops, zipf_n, zipf_blocks, skew, interleave, seed: (
        mixed_phases(
            [
                sequential_scan(scan_blocks, prefix="mx_s"),
                looping_scan(loop_blocks, loops, prefix="mx_l"),
                zipf(zipf_n, zipf_blocks, skew=skew, seed=seed, prefix="mx_z"),
            ],
            interleave=interleave,
            seed=seed,
        )
    ),
    [
        ParamSpec("scan_blocks", int, 40, "blocks in the scan phase"),
        ParamSpec("loop_blocks", int, 15, "blocks per loop iteration"),
        ParamSpec("loops", int, 3, "loop iterations"),
        ParamSpec("zipf_n", int, 80, "requests in the Zipf phase"),
        ParamSpec("zipf_blocks", int, 30, "distinct blocks in the Zipf phase"),
        ParamSpec("skew", float, 1.0, "Zipf exponent"),
        ParamSpec("interleave", coerce_bool, False, "merge phases in random order"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="mixed:interleave=true,seed=3",
)

WORKLOAD_REGISTRY.add(
    "markov",
    "Markov-modulated locality: a hot window that jumps at random instants",
    lambda n, blocks, window, locality, switch, seed: markov_phases(
        n, blocks, window=window, locality=locality, switch=switch, seed=seed
    ),
    [
        ParamSpec("n", int, 400, "number of requests"),
        ParamSpec("blocks", int, 100, "distinct blocks"),
        ParamSpec("window", int, 12, "hot-window size"),
        ParamSpec("locality", float, 0.9, "probability a request stays in the window"),
        ParamSpec("switch", float, 0.05, "per-request probability the window jumps"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="markov:n=1000,blocks=200,window=16,switch=0.02",
)

WORKLOAD_REGISTRY.add(
    "multiclient",
    "Interleaved per-client Zipf streams plus a shared hot set (many users)",
    lambda clients, n, blocks, shared, shared_frac, skew, seed: multiclient_streams(
        clients, n, blocks_per_client=blocks, shared_blocks=shared,
        shared_fraction=shared_frac, skew=skew, seed=seed,
    ),
    [
        ParamSpec("clients", int, 8, "number of concurrent clients"),
        ParamSpec("n", int, 400, "total number of requests"),
        ParamSpec("blocks", int, 20, "private blocks per client"),
        ParamSpec("shared", int, 10, "blocks in the shared hot set"),
        ParamSpec("shared_frac", float, 0.3, "probability a request hits the shared set"),
        ParamSpec("skew", float, 0.8, "Zipf exponent within each region"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="multiclient:clients=32,n=2000,shared=16,shared_frac=0.4",
)

WORKLOAD_REGISTRY.add(
    "filescan",
    "Sequential scans over several files with optional hot metadata blocks",
    lambda files, blocks, rescans, hot, seed: file_scan_trace(
        files, blocks, rescans=rescans, hot_block_accesses=hot, seed=seed
    ),
    [
        ParamSpec("files", int, 4, "number of files"),
        ParamSpec("blocks", int, 25, "blocks per file"),
        ParamSpec("rescans", int, 1, "full scans of the file set"),
        ParamSpec("hot", int, 0, "extra references to hot metadata blocks"),
        ParamSpec("seed", int, 0, "RNG seed"),
    ],
    kind="sequence", example="filescan:files=6,blocks=20,rescans=2,hot=30",
)

WORKLOAD_REGISTRY.add(
    "join",
    "Block nested-loop join: rescan the inner relation per outer block",
    lambda outer, inner, passes: database_join_trace(
        outer, inner, inner_passes_per_outer=passes
    ),
    [
        ParamSpec("outer", int, 8, "outer-relation blocks"),
        ParamSpec("inner", int, 12, "inner-relation blocks"),
        ParamSpec("passes", int, 1, "inner passes per outer block"),
    ],
    kind="sequence", example="join:outer=10,inner=20",
)

WORKLOAD_REGISTRY.add(
    "stream",
    "Strictly sequential multimedia streams in round-robin interleaving",
    lambda streams, blocks: multimedia_stream_trace(streams, blocks),
    [
        ParamSpec("streams", int, 3, "number of concurrent streams"),
        ParamSpec("blocks", int, 40, "blocks per stream"),
    ],
    kind="sequence", example="stream:streams=4,blocks=30",
)

WORKLOAD_REGISTRY.add(
    "trace",
    "Request sequence loaded from a one-block-per-line trace file",
    lambda path: load_trace(path),
    [ParamSpec("path", str, help="path to the trace file")],
    kind="sequence", example="trace:path=/tmp/trace.txt",
)

WORKLOAD_REGISTRY.add(
    "thm2",
    "Theorem 2 lower-bound construction (warm instance; needs (F-1) | (k-1))",
    lambda k, F, phases: theorem2_sequence(k, F, phases).instance,
    [
        ParamSpec("k", int, 13, "cache size (defaults to the caller's -k)"),
        ParamSpec("F", int, 4, "fetch time (defaults to the caller's -F)"),
        ParamSpec("phases", int, 4, "number of adversarial phases"),
    ],
    kind="instance", example="thm2:phases=6",
)

WORKLOAD_REGISTRY.add(
    "cao",
    "Cao et al. F >= k stress: cyclic scan over k+1 blocks (warm instance)",
    lambda k, F, cycles: cao_f_ge_k_sequence(k, F, cycles),
    [
        ParamSpec("k", int, 8, "cache size (defaults to the caller's -k)"),
        ParamSpec("F", int, 10, "fetch time (defaults to the caller's -F)"),
        ParamSpec("cycles", int, 4, "number of cycles over the k+1 blocks"),
    ],
    kind="instance", example="cao:cycles=6",
)


# ---------------------------------------------------------------------------------
# multi-disk layouts
# ---------------------------------------------------------------------------------

#: Spec-addressable placement strategies for ``disks > 1``; every builder has
#: the uniform signature ``(requests, cache_size, fetch_time, num_disks)``.
LAYOUT_BUILDERS: Dict[str, Callable[..., ProblemInstance]] = {
    "striped": striped_instance,
    "hashed": hashed_instance,
    "roundrobin": first_seen_round_robin_instance,
    "partitioned": contiguous_partitioned_instance,
}


def get_layout_builder(layout: str) -> Callable[..., ProblemInstance]:
    """The layout builder registered under ``layout`` (strict)."""
    builder = LAYOUT_BUILDERS.get(layout.strip().lower())
    if builder is None:
        raise ConfigurationError(
            f"unknown layout {layout!r}; available: {', '.join(sorted(LAYOUT_BUILDERS))}"
        )
    return builder


# ---------------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------------


def parse_workload(spec: str) -> RequestSequence:
    """Parse a workload spec string into a request sequence (strictly).

    For ``instance``-kind workloads the construction is built from the
    spec's (or the schema's default) ``k``/``F`` and its request sequence is
    returned; use :func:`build_workload_instance` to keep the warm instance.
    """
    entry, _raw, params = WORKLOAD_REGISTRY.parse(spec)
    built = entry.build(**params)
    if isinstance(built, ProblemInstance):
        return built.sequence
    return built


def generate_sequence(spec: str) -> Optional[RequestSequence]:
    """Generation, the first step of :func:`build_workload_instance`.

    A ``sequence``-kind spec yields its request sequence, which depends on
    the spec alone, so it can be generated once and placed at many
    (``k``, ``F``, disks, layout) points with :func:`place_sequence`.  An
    ``instance``-kind spec yields ``None``: its construction takes ``k``
    and ``F``, so only :func:`build_workload_instance` builds it.
    """
    entry, _raw, params = WORKLOAD_REGISTRY.parse(spec)
    return entry.build(**params) if entry.kind == "sequence" else None


def place_sequence(
    sequence: RequestSequence,
    *,
    cache_size: int,
    fetch_time: int,
    disks: int = 1,
    layout: str = "striped",
) -> ProblemInstance:
    """Placement, the second step: ``sequence`` with ``k``, ``F`` and its disks.

    One disk needs no placement; ``disks > 1`` places the blocks with the
    named :data:`LAYOUT_BUILDERS` strategy.  A disk count below 1 is a
    :class:`ConfigurationError`.
    """
    _check_disk_count(disks)
    if disks > 1:
        return get_layout_builder(layout)(sequence, cache_size, fetch_time, disks)
    return ProblemInstance.single_disk(sequence, cache_size, fetch_time)


def build_workload_instance(
    spec: str,
    *,
    cache_size: int,
    fetch_time: int,
    disks: int = 1,
    layout: str = "striped",
) -> ProblemInstance:
    """Build the full problem instance described by ``spec`` x layout x disks.

    ``sequence``-kind workloads are generated (:func:`generate_sequence`)
    and placed (:func:`place_sequence`) with the caller's cache size, fetch
    time and, for ``disks > 1``, the named strategy from
    :data:`LAYOUT_BUILDERS`.  ``instance``-kind workloads (``thm2``,
    ``cao``) carry their own warm cache; ``k``/``F`` pinned in the spec win
    over the caller's values, and multi-disk placement is rejected (the
    constructions are single-disk proofs).  A disk count below 1 is a
    :class:`ConfigurationError`.
    """
    _check_disk_count(disks)
    sequence = generate_sequence(spec)
    if sequence is not None:
        return place_sequence(
            sequence, cache_size=cache_size, fetch_time=fetch_time, disks=disks, layout=layout
        )
    entry, raw, params = WORKLOAD_REGISTRY.parse(spec)
    if disks > 1:
        raise ConfigurationError(
            f"workload {entry.name!r} in spec {spec!r} is a single-disk "
            f"construction; it cannot be placed on {disks} disks"
        )
    if "k" not in raw:
        params["k"] = cache_size
    if "F" not in raw:
        params["F"] = fetch_time
    return entry.build(**params)


def _check_disk_count(disks: int) -> None:
    if disks < 1:
        raise ConfigurationError(f"the disk count must be at least 1, got {disks}")
