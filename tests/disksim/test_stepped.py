"""The stepped kernel vs the batch engine: byte-identical trajectories.

:class:`~repro.disksim.stepped.SteppedSimulation` claims a prefix-of-batch
invariant: feeding a sequence incrementally (any chunking, with snapshot /
restore round-trips at arbitrary points) and closing the stream must produce
exactly the schedule, metrics and event log of a batch run over the complete
sequence.  These tests sweep the randomized instance battery the
engine-equivalence suite uses, plus targeted unit tests of the stream
lifecycle, the pause/defer/budget statuses and the snapshot envelope.
"""

from __future__ import annotations

import json

import pytest

from helpers import random_instance
from repro.algorithms import make_algorithm
from repro.disksim import (
    ProblemInstance,
    RequestSequence,
    SteppedSimulation,
    StreamSequence,
    simulate,
)
from repro.errors import ConfigurationError, InvalidSequenceError

SINGLE_DISK_SPECS = (
    "aggressive",
    "conservative",
    "delay:d=3",
    "combination",
    "demand",
    "demand:evict=lru",
    "demand:evict=fifo",
)

PARALLEL_SPECS = (
    "parallel-aggressive",
    "parallel-conservative",
    "demand:evict=lru",
)


def _stream_result(instance, spec, *, chunk, snapshot_every=None):
    """Run ``instance`` through an open stream fed ``chunk`` requests at a time.

    With ``snapshot_every`` set, the simulation is additionally torn down and
    revived through a JSON-serialised snapshot after every that-many chunks —
    the daemon-restart path exercised mid-run.
    """
    sim = SteppedSimulation.open_stream(
        make_algorithm(spec),
        cache_size=instance.cache_size,
        fetch_time=instance.fetch_time,
        layout=instance.layout,
        initial_cache=instance.initial_cache,
    )
    requests = list(instance.sequence.requests)
    for index, start in enumerate(range(0, len(requests), chunk)):
        sim.feed(requests[start : start + chunk])
        sim.advance()
        if snapshot_every is not None and index % snapshot_every == snapshot_every - 1:
            payload = json.loads(json.dumps(sim.snapshot()))
            sim = SteppedSimulation.restore(payload)
    sim.close()
    assert sim.advance() == SteppedSimulation.COMPLETE
    return sim.result()


def _assert_matches_batch(instance, spec, *, chunk, snapshot_every=None):
    streamed = _stream_result(instance, spec, chunk=chunk, snapshot_every=snapshot_every)
    batch = simulate(instance, make_algorithm(spec), record_events=True)
    assert streamed.schedule == batch.schedule
    assert streamed.metrics == batch.metrics
    assert list(streamed.events) == list(batch.events)


@pytest.mark.parametrize("seed", range(28))
def test_single_disk_stream_equals_batch(seed):
    """Single-disk battery, one request at a time, rotating policy specs."""
    instance = random_instance(seed)
    _assert_matches_batch(instance, SINGLE_DISK_SPECS[seed % len(SINGLE_DISK_SPECS)], chunk=1)


@pytest.mark.parametrize("seed", range(28))
def test_single_disk_chunked_with_snapshots(seed):
    """Chunked feeds with a JSON snapshot/restore round-trip every 2 chunks."""
    instance = random_instance(seed)
    spec = SINGLE_DISK_SPECS[(seed + 3) % len(SINGLE_DISK_SPECS)]
    _assert_matches_batch(instance, spec, chunk=5, snapshot_every=2)


@pytest.mark.parametrize("seed", range(150, 166))
def test_parallel_disk_stream_equals_batch(seed):
    """Parallel-disk battery with mid-run snapshot round-trips."""
    instance = random_instance(seed, parallel=True)
    spec = PARALLEL_SPECS[seed % len(PARALLEL_SPECS)]
    _assert_matches_batch(instance, spec, chunk=4, snapshot_every=3)


@pytest.mark.parametrize("seed", (0, 5, 11, 17))
@pytest.mark.parametrize("spec", ("aggressive", "conservative", "demand:evict=lru"))
def test_project_equals_batch_over_fed_prefix(seed, spec):
    """``project()`` is the batch oracle of exactly the requests fed so far."""
    instance = random_instance(seed)
    requests = list(instance.sequence.requests)
    prefix = requests[: max(1, len(requests) // 2)]
    sim = SteppedSimulation.open_stream(
        make_algorithm(spec),
        cache_size=instance.cache_size,
        fetch_time=instance.fetch_time,
        initial_cache=instance.initial_cache,
    )
    sim.feed(prefix)
    sim.advance()
    cursor_before, time_before = sim.cursor, sim.time
    projected = sim.project()
    # The projection must not disturb the live simulation.
    assert (sim.cursor, sim.time) == (cursor_before, time_before)
    assert not sim.closed
    oracle_instance = ProblemInstance.single_disk(
        RequestSequence(prefix),
        cache_size=instance.cache_size,
        fetch_time=instance.fetch_time,
        initial_cache=instance.initial_cache,
    )
    oracle = simulate(oracle_instance, make_algorithm(spec))
    assert projected.schedule == oracle.schedule
    assert projected.metrics == oracle.metrics


def _open(spec="aggressive", **kwargs):
    defaults = dict(cache_size=3, fetch_time=2)
    defaults.update(kwargs)
    return SteppedSimulation.open_stream(make_algorithm(spec), **defaults)


def test_advance_statuses():
    """paused / deferred / budget / complete are reported as documented."""
    sim = _open()
    assert sim.streaming
    sim.feed(["a", "b", "a"])
    assert sim.advance() == SteppedSimulation.PAUSED
    assert sim.advance(max_events=0) == SteppedSimulation.BUDGET

    deferred = _open("conservative")
    assert not deferred.streaming
    deferred.feed(["a", "b"])
    assert deferred.advance() == SteppedSimulation.DEFERRED
    assert deferred.cursor == 0  # nothing ran while open
    deferred.close()
    assert deferred.advance() == SteppedSimulation.COMPLETE
    assert deferred.finished

    sim.close()
    assert sim.advance(max_events=1) == SteppedSimulation.BUDGET
    assert sim.advance() == SteppedSimulation.COMPLETE
    assert sim.advance() == SteppedSimulation.COMPLETE  # idempotent


@pytest.mark.parametrize("record_events", [False, True])
def test_batch_snapshot_keeps_whether_the_log_is_recorded(record_events):
    """A batch run snapshotted mid-run resumes with (or without) its log."""
    instance = random_instance(3)
    sim = SteppedSimulation.from_instance(
        instance, make_algorithm("aggressive"), record_events=record_events
    )
    assert sim.advance(max_events=5) == SteppedSimulation.BUDGET
    revived = SteppedSimulation.restore(json.loads(json.dumps(sim.snapshot())))
    result = revived.run_to_completion()
    batch = simulate(instance, make_algorithm("aggressive"), record_events=True)
    assert (result.schedule, result.metrics) == (batch.schedule, batch.metrics)
    if record_events:
        assert list(result.events) == list(batch.events)
    else:
        assert result.events is None


def test_time_never_advances_while_paused():
    """A starved stream pauses at the horizon instead of idling the clock."""
    sim = _open()
    sim.feed(["a"])
    sim.advance()
    stamp = sim.time
    for _ in range(3):
        assert sim.advance() == SteppedSimulation.PAUSED
        assert sim.time == stamp


def test_feed_after_close_and_batch_feed_are_errors():
    sim = _open()
    sim.feed(["a"])
    sim.close()
    with pytest.raises(InvalidSequenceError):
        sim.feed(["b"])

    batch = SteppedSimulation.from_instance(
        ProblemInstance.single_disk(RequestSequence(["a", "b"]), cache_size=2, fetch_time=1),
        make_algorithm("aggressive"),
    )
    with pytest.raises(ConfigurationError):
        batch.feed(["c"])


def test_snapshot_rejects_unknown_version():
    sim = _open()
    sim.feed(["a", "b"])
    payload = sim.snapshot()
    payload["version"] = 99
    with pytest.raises(ConfigurationError):
        SteppedSimulation.restore(payload)


def test_snapshot_is_json_serialisable_and_resumes_in_flight_fetches():
    sim = _open()
    sim.feed(["a", "b", "c", "a", "b"])
    sim.advance()
    payload = sim.snapshot()
    revived = SteppedSimulation.restore(json.loads(json.dumps(payload)))
    assert revived.cursor == sim.cursor
    assert revived.time == sim.time
    assert revived.horizon == sim.horizon
    assert list(revived.fetches_so_far()) == list(sim.fetches_so_far())
    assert revived.metrics_so_far() == sim.metrics_so_far()


class TestStreamSequence:
    def test_extend_patches_next_use_links(self):
        stream = StreamSequence(["a", "b"])
        assert stream.next_use_from(0, "a") == 0
        added = stream.extend(["a", "c"])
        assert added == 2
        assert stream.next_use_from(1, "a") == 2
        assert len(stream) == 4
        assert tuple(stream.requests) == ("a", "b", "a", "c")

    def test_equality_with_plain_sequence_is_symmetric(self):
        stream = StreamSequence(["a", "b", "a"])
        plain = RequestSequence(["a", "b", "a"])
        assert stream == plain
        assert plain == stream
        assert hash(stream) == hash(plain)

    def test_extend_after_close_raises(self):
        stream = StreamSequence(["a"])
        stream.close()
        assert stream.closed
        with pytest.raises(InvalidSequenceError):
            stream.extend(["b"])

    def test_none_block_rejected(self):
        stream = StreamSequence([])
        with pytest.raises(InvalidSequenceError):
            stream.extend([None])
