"""Tests for repro.disksim.sequence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._typing import INFINITY
from repro.disksim import RequestSequence
from repro.errors import InvalidSequenceError

SEQ = RequestSequence(["a", "b", "a", "c", "b", "a"])


class TestBasics:
    def test_length_and_indexing(self):
        assert len(SEQ) == 6
        assert SEQ[0] == "a"
        assert SEQ[-1] == "a"

    def test_slicing_returns_sequence(self):
        part = SEQ[1:4]
        assert isinstance(part, RequestSequence)
        assert list(part) == ["b", "a", "c"]

    def test_equality_with_list_and_sequence(self):
        assert SEQ == ["a", "b", "a", "c", "b", "a"]
        assert SEQ == RequestSequence(["a", "b", "a", "c", "b", "a"])
        assert SEQ != RequestSequence(["a", "b"])

    def test_hashable(self):
        assert hash(SEQ) == hash(RequestSequence(list(SEQ)))

    def test_equality_with_lists_and_tuples_is_symmetric(self):
        items = ["a", "b", "a", "c", "b", "a"]
        assert items == SEQ and SEQ == items
        assert tuple(items) == SEQ and SEQ == tuple(items)
        assert ["a", "b"] != SEQ and SEQ != ("a", "b")

    def test_other_types_compare_unequal(self):
        assert SEQ.__eq__("abacba") is NotImplemented
        assert SEQ != "abacba"
        assert SEQ != frozenset(SEQ)

    def test_slices_compare_and_hash_by_content(self):
        part = SEQ[1:4]
        same = RequestSequence(["b", "a", "c"])
        assert part == same and hash(part) == hash(same)
        assert len({part, same, SEQ}) == 2

    def test_empty_rejected_by_default(self):
        with pytest.raises(InvalidSequenceError):
            RequestSequence([])

    def test_empty_allowed_when_requested(self):
        assert len(RequestSequence([], allow_empty=True)) == 0

    def test_none_request_rejected(self):
        with pytest.raises(InvalidSequenceError):
            RequestSequence(["a", None])

    def test_distinct_blocks(self):
        assert SEQ.distinct_blocks == {"a", "b", "c"}
        assert SEQ.num_distinct == 3


class TestQueries:
    def test_positions(self):
        assert SEQ.positions("a") == (0, 2, 5)
        assert SEQ.positions("missing") == ()

    def test_first_and_last_use(self):
        assert SEQ.first_use("b") == 1
        assert SEQ.last_use("b") == 4
        assert SEQ.first_use("zz") == INFINITY
        assert SEQ.last_use("zz") == -1

    def test_next_use_from(self):
        assert SEQ.next_use_from(0, "a") == 0
        assert SEQ.next_use_from(1, "a") == 2
        assert SEQ.next_use_from(3, "a") == 5
        assert SEQ.next_use_from(6, "a") == INFINITY

    def test_next_use_after(self):
        assert SEQ.next_use_after(0, "a") == 2
        assert SEQ.next_use_after(5, "a") == INFINITY

    def test_previous_use_before(self):
        assert SEQ.previous_use_before(5, "a") == 2
        assert SEQ.previous_use_before(0, "a") == -1

    def test_next_use_chain_matches_next_use_after(self):
        for pos in range(len(SEQ)):
            assert SEQ.next_use_chain(pos) == SEQ.next_use_after(pos, SEQ[pos])

    def test_uses_between(self):
        assert SEQ.uses_between("a", 0, 6) == 3
        assert SEQ.uses_between("a", 1, 5) == 1
        assert SEQ.uses_between("c", 0, 3) == 0

    def test_is_requested_in(self):
        assert SEQ.is_requested_in("c", 2, 5)
        assert not SEQ.is_requested_in("c", 4, 6)

    def test_distinct_in_window(self):
        assert SEQ.distinct_in_window(1, 4) == {"b", "a", "c"}
        assert SEQ.distinct_in_window(-5, 2) == {"a", "b"}


class TestCombinators:
    def test_reversed(self):
        assert list(SEQ.reversed()) == ["a", "b", "c", "a", "b", "a"]

    def test_concat(self):
        combined = SEQ.concat(["x", "y"])
        assert len(combined) == 8
        assert combined[-1] == "y"

    def test_repeat(self):
        assert len(SEQ.repeat(3)) == 18
        with pytest.raises(InvalidSequenceError):
            SEQ.repeat(-1)

    def test_relabelled(self):
        renamed = SEQ.relabelled({"a": "A"})
        assert renamed.positions("A") == (0, 2, 5)
        assert not renamed.contains_block("a")
        assert renamed.positions("b") == (1, 4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=40))
def test_next_use_matches_linear_scan(blocks):
    """next_use_from agrees with a naive linear scan on arbitrary sequences."""
    seq = RequestSequence(blocks)
    for pos in range(len(seq) + 1):
        for block in set(blocks):
            expected = INFINITY
            for j in range(pos, len(blocks)):
                if blocks[j] == block:
                    expected = j
                    break
            assert seq.next_use_from(pos, block) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
def test_positions_partition_the_sequence(blocks):
    """Every request position appears in exactly one block's position list."""
    seq = RequestSequence(blocks)
    all_positions = sorted(p for b in seq.distinct_blocks for p in seq.positions(b))
    assert all_positions == list(range(len(seq)))
