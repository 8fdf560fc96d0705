"""Tests for the indexed sorted container behind the pending queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.sortedlist import SortedKeyList
from tests.sortedlist_oracle import LegacySortedKeyList


def make(load=4):
    # tiny load so unit tests exercise sublist splits and merges
    return SortedKeyList(key=lambda x: x, load=load)


class TestBasics:
    def test_empty(self):
        s = make()
        assert len(s) == 0
        assert not s
        assert list(s) == []
        with pytest.raises(IndexError):
            s[0]
        with pytest.raises(IndexError):
            s.pop()

    def test_add_orders_items(self):
        s = make()
        for x in [5, 1, 4, 2, 3]:
            s.add(x)
        assert list(s) == [1, 2, 3, 4, 5]
        assert s[0] == 1 and s[4] == 5 and s[-1] == 5

    def test_pop_head_and_index(self):
        s = make()
        for x in range(10):
            s.add(x)
        assert s.pop() == 0
        assert s.pop(3) == 4
        assert list(s) == [1, 2, 3, 5, 6, 7, 8, 9]

    def test_remove_by_value(self):
        s = make()
        for x in [30, 10, 20]:
            s.add(x)
        s.remove(20)
        assert list(s) == [10, 30]
        with pytest.raises(ValueError):
            s.remove(99)

    def test_key_extraction(self):
        s = SortedKeyList(key=lambda p: p[0], load=4)
        s.add((2, "b"))
        s.add((1, "a"))
        s.add((3, "c"))
        assert [v for _, v in s] == ["a", "b", "c"]
        s.remove((2, "b"))
        assert [v for _, v in s] == ["a", "c"]

    def test_splits_keep_order_across_many_sublists(self):
        s = make(load=2)
        for x in range(100, 0, -1):
            s.add(x)
        assert list(s) == list(range(1, 101))
        assert len(s) == 100

    def test_islice(self):
        s = make(load=3)
        for x in range(20):
            s.add(x)
        assert s.islice(1, 6) == [1, 2, 3, 4, 5]
        assert s.islice(0, 100) == list(range(20))
        assert s.islice(18, 25) == [18, 19]
        assert s.islice(5, 5) == []
        assert s.islice(25, 30) == []

    def test_bad_load_rejected(self):
        with pytest.raises(ValueError):
            SortedKeyList(key=lambda x: x, load=1)

    def test_init_from_iterable(self):
        s = SortedKeyList(key=lambda x: -x, iterable=[1, 3, 2])
        assert list(s) == [3, 2, 1]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 10_000)),
        st.tuples(st.just("pop"), st.integers(0, 30)),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
        st.tuples(st.just("islice"), st.integers(0, 40)),
    ),
    max_size=200)


@settings(max_examples=200, deadline=None)
@given(ops=ops, load=st.integers(2, 8))
def test_matches_reference_implementation(ops, load):
    """Every operation sequence agrees with the flat-list reference."""
    fast = SortedKeyList(key=lambda x: x, load=load)
    ref = LegacySortedKeyList(key=lambda x: x)
    counter = 0
    for op, arg in ops:
        if op == "add":
            # unique values: the queue key is total-ordered in practice
            counter += 1
            val = (arg, counter)
            fast.add(val)
            ref.add(val)
        elif op == "pop":
            if arg < len(ref):
                assert fast.pop(arg) == ref.pop(arg)
        elif op == "remove":
            if len(ref):
                victim = ref[arg % len(ref)]
                fast.remove(victim)
                ref.remove(victim)
        elif op == "islice":
            assert fast.islice(0, arg) == ref.islice(0, arg)
            assert fast.islice(arg, arg + 7) == ref.islice(arg, arg + 7)
        assert len(fast) == len(ref)
        if len(ref):
            assert fast[0] == ref[0]
            assert fast[len(ref) - 1] == ref[len(ref) - 1]
    assert list(fast) == list(ref)
