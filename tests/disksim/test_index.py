"""Unit tests for the engine's runtime indices (MissTracker, EvictionHeap)."""

from __future__ import annotations

from repro._typing import INFINITY
from repro.disksim import DiskLayout, EvictionHeap, MissTracker, RequestSequence


def _tracker(sequence, present=(), layout=None):
    return MissTracker(sequence, layout if layout is not None else DiskLayout.single(), present)


class TestMissTracker:
    def test_empty_sequence(self):
        tracker = _tracker(RequestSequence([], allow_empty=True))
        assert tracker.next_missing(0) is None

    def test_initial_miss_is_first_use(self):
        tracker = _tracker(RequestSequence(["a", "b", "a", "c"]), present=["a"])
        # 'a' is present; the first absent block is b at position 1.
        assert tracker.next_missing(0) == 1

    def test_repeated_blocks_report_first_occurrence_only(self):
        tracker = _tracker(RequestSequence(["a", "a", "a", "b", "b"]))
        assert tracker.next_missing(0) == 0
        tracker.mark_present("a")
        assert tracker.next_missing(0) == 3

    def test_eviction_rekeys_at_next_occurrence(self):
        seq = RequestSequence(["a", "b", "a", "b", "a"])
        tracker = _tracker(seq, present=["a", "b"])
        assert tracker.next_missing(0) is None
        tracker.mark_absent("a", 1)  # evicted once the cursor reached 1
        assert tracker.next_missing(1) == 2

    def test_never_reused_block_eviction_is_invisible(self):
        seq = RequestSequence(["a", "b"])
        tracker = _tracker(seq, present=["a", "b"])
        tracker.mark_absent("a", 2)  # after its last (only) use
        assert tracker.next_missing(2) is None

    def test_stale_entries_from_earlier_absence_are_dropped(self):
        seq = RequestSequence(["a", "b", "a", "b", "a", "b"])
        tracker = _tracker(seq, present=["a"])
        assert tracker.next_missing(0) == 1  # b missing at 1
        tracker.mark_present("b")            # fetched
        tracker.mark_absent("b", 4)          # evicted again later
        # The old entry (position 1) must not resurface at cursor 4.
        assert tracker.next_missing(4) == 5

    def test_exclude_skips_promised_blocks(self):
        seq = RequestSequence(["a", "b", "c"])
        tracker = _tracker(seq)
        assert tracker.next_missing(0) == 0
        assert tracker.next_missing(0, exclude={"a"}) == 1
        assert tracker.next_missing(0, exclude={"a", "b", "c"}) is None
        # Exclusion must not consume the stashed entries.
        assert tracker.next_missing(0) == 0

    def test_per_disk_queries(self):
        layout = DiskLayout.partitioned([["a", "b"], ["x", "y"]])
        seq = RequestSequence(["a", "x", "b", "y"])
        tracker = _tracker(seq, layout=layout)
        assert tracker.next_missing(0, on_disk=0) == 0
        assert tracker.next_missing(0, on_disk=1) == 1
        tracker.mark_present("x")
        assert tracker.next_missing(0, on_disk=1) == 3


class TestEvictionHeap:
    def test_best_is_furthest_next_use(self):
        seq = RequestSequence(["a", "b", "c", "a", "b", "c"])
        heap = EvictionHeap(seq)
        for block in ("a", "b", "c"):
            heap.add(block, 0)
        # Next uses from 0: a->0, b->1, c->2; furthest is c.
        assert heap.best(0) == "c"

    def test_ties_break_by_string_repr(self):
        seq = RequestSequence(["a", "b"])  # both then never reused
        heap = EvictionHeap(seq)
        heap.add("a", 2)
        heap.add("b", 2)
        # Both have next use INFINITY; max str wins, matching the scan engine.
        assert heap.best(2) == "b"

    def test_on_serve_refreshes_key(self):
        seq = RequestSequence(["a", "b", "a", "b"])
        heap = EvictionHeap(seq)
        heap.add("a", 0)
        heap.add("b", 0)
        assert heap.best(0) == "b"  # a->0, b->1
        heap.on_serve(0)            # serve a; its next use jumps to 2
        assert heap.best(1) == "a"  # a->2 beats b->1

    def test_discard_removes_block(self):
        seq = RequestSequence(["a", "b"])
        heap = EvictionHeap(seq)
        heap.add("a", 0)
        heap.add("b", 0)
        heap.discard("b")
        assert heap.best(0) == "a"
        heap.discard("a")
        assert heap.best(0) is None

    def test_exclude_preserves_entries(self):
        seq = RequestSequence(["a", "b", "a", "b"])
        heap = EvictionHeap(seq)
        heap.add("a", 0)
        heap.add("b", 0)
        assert heap.best(0, exclude={"b"}) == "a"
        assert heap.best(0) == "b"

    def test_never_reused_block_has_infinite_key(self):
        seq = RequestSequence(["z", "b", "z"])
        heap = EvictionHeap(seq)
        heap.add("b", 2)  # added after its only use: next use is INFINITY
        heap.add("z", 2)  # next used at 2, and "z" wins string ties
        assert seq.next_use_from(2, "b") == INFINITY
        assert heap.best(2) == "b"
