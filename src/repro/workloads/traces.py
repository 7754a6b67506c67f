"""Trace-like workloads and a simple on-disk trace format.

The experimental prefetching literature that motivates the paper (Cao et
al.'s SIGMETRICS studies, Patterson et al.'s informed prefetching, the
Kimbrel et al. trace-driven comparison) evaluates on application I/O traces:
file scans with computation between accesses, database joins that alternate
between relations, and multimedia streams with near-perfect sequentiality.
Those traces are not redistributable, so this module provides synthetic
generators that reproduce their *access-pattern shape* (the property the
algorithms react to), plus a tiny text format so users can plug in their own
traces.

Trace file format: one block identifier per line; blank lines and lines
starting with ``#`` are ignored.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence

from .._typing import BlockId
from ..disksim.sequence import RequestSequence
from ..errors import ConfigurationError, InvalidSequenceError
from .synthetic import _rng

__all__ = [
    "file_scan_trace",
    "database_join_trace",
    "multimedia_stream_trace",
    "load_trace",
    "save_trace",
]


def file_scan_trace(
    num_files: int,
    blocks_per_file: int,
    *,
    rescans: int = 1,
    hot_block_accesses: int = 0,
    seed: int = 0,
) -> RequestSequence:
    """Sequential scans over several files with optional hot metadata blocks.

    Each file ``f`` consists of blocks ``f<i>_<j>`` read in order; the whole
    set of files is scanned ``rescans`` times.  ``hot_block_accesses`` extra
    references to a small set of "metadata" blocks are sprinkled in between,
    modelling directory/inode blocks that a caching policy should pin while a
    prefetcher streams the file data past them.
    """
    if num_files < 1 or blocks_per_file < 1 or rescans < 1:
        raise ConfigurationError("num_files, blocks_per_file and rescans must be positive")
    rng = _rng(seed)
    hot_blocks = [f"meta{j}" for j in range(max(1, num_files // 2))]
    requests: List[BlockId] = []
    for _ in range(rescans):
        for f in range(num_files):
            for j in range(blocks_per_file):
                requests.append(f"f{f}_{j}")
                if hot_block_accesses and rng.random() < hot_block_accesses / (
                    num_files * blocks_per_file
                ):
                    requests.append(hot_blocks[int(rng.integers(0, len(hot_blocks)))])
    return RequestSequence(requests)


def database_join_trace(
    outer_blocks: int,
    inner_blocks: int,
    *,
    inner_passes_per_outer: int = 1,
    seed: int = 0,
) -> RequestSequence:
    """A block nested-loop join: for each outer block, scan the inner relation.

    The inner relation is rescanned repeatedly, which is the classic pattern
    where the *combination* of caching (keep the inner relation resident if it
    fits) and prefetching (stream it if it does not) matters.
    """
    if outer_blocks < 1 or inner_blocks < 1 or inner_passes_per_outer < 1:
        raise ConfigurationError("relation sizes and passes must be positive")
    requests: List[BlockId] = []
    for o in range(outer_blocks):
        requests.append(f"outer{o}")
        for _ in range(inner_passes_per_outer):
            requests.extend(f"inner{i}" for i in range(inner_blocks))
    return RequestSequence(requests)


def multimedia_stream_trace(
    num_streams: int,
    blocks_per_stream: int,
    *,
    seed: int = 0,
) -> RequestSequence:
    """Several strictly sequential streams consumed in round-robin interleaving.

    Models video/audio playback where each stream is perfectly predictable but
    the cache is shared across streams, so eviction decisions interact with
    per-stream prefetch depth.
    """
    if num_streams < 1 or blocks_per_stream < 1:
        raise ConfigurationError("num_streams and blocks_per_stream must be positive")
    requests: List[BlockId] = []
    for j in range(blocks_per_stream):
        for s in range(num_streams):
            requests.append(f"st{s}_{j}")
    return RequestSequence(requests)


def save_trace(sequence: RequestSequence | Sequence[BlockId], path: str | Path) -> None:
    """Write a request sequence to ``path`` in the one-block-per-line format."""
    seq = sequence if isinstance(sequence, RequestSequence) else RequestSequence(sequence)
    lines = ["# repro trace format: one block identifier per line"]
    lines.extend(str(block) for block in seq)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf8")


def load_trace(path: str | Path) -> RequestSequence:
    """Read a request sequence from the one-block-per-line text format.

    A missing, unreadable or non-UTF-8 file raises
    :class:`~repro.errors.ConfigurationError` naming the path — the same
    strict-configuration contract the spec registry gives every other bad
    parameter — instead of leaking a raw :class:`OSError` or
    :class:`UnicodeDecodeError`.
    """
    try:
        text = Path(path).read_text(encoding="utf8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read trace file {path}: {exc}") from exc
    requests = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not requests:
        raise InvalidSequenceError(f"trace file {path} contains no requests")
    return RequestSequence(requests)
