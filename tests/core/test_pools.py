"""Tests for the Complete store and the Incomplete pools."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pools import CompleteStore, ListIncompletePool, PriorityIncompletePool
from repro.core.ranking import MaxRanking
from repro.core.tupleset import TupleSet
from repro.workloads.tourist import tourist_database, tourist_importance


def by_label(db, *labels):
    return TupleSet(db.tuple_by_label(label) for label in labels)


class TestCompleteStore:
    def test_add_and_membership(self, tourist_db):
        store = CompleteStore("Climates")
        ts = by_label(tourist_db, "c1", "a1")
        assert ts not in store
        store.add(ts)
        assert ts in store and len(store) == 1
        assert store.as_list() == [ts]

    def test_contains_superset_linear(self, tourist_db):
        store = CompleteStore("Climates")
        store.add(by_label(tourist_db, "c1", "a2", "s1"))
        assert store.contains_superset(by_label(tourist_db, "c1", "a2"))
        assert store.contains_superset(by_label(tourist_db, "c1", "s1"))
        assert not store.contains_superset(by_label(tourist_db, "c1", "s2"))

    def test_contains_superset_indexed_with_explicit_anchor(self, tourist_db):
        store = CompleteStore(anchor_relation=None, use_index=True)
        result = by_label(tourist_db, "c1", "a2", "s1")
        store.add(result)
        probe = by_label(tourist_db, "c1", "a2")
        anchor = tourist_db.tuple_by_label("c1")
        assert store.contains_superset(probe, anchor=anchor)
        other_anchor = tourist_db.tuple_by_label("c2")
        assert not store.contains_superset(by_label(tourist_db, "c2"), anchor=other_anchor)

    def test_indexed_probe_scans_fewer_sets(self, tourist_db):
        linear = CompleteStore("Climates", use_index=False)
        indexed = CompleteStore("Climates", use_index=True)
        for labels in (("c1", "a1"), ("c1", "a2", "s1"), ("c2", "s3"), ("c2", "s4")):
            linear.add(by_label(tourist_db, *labels))
            indexed.add(by_label(tourist_db, *labels))
        probe = by_label(tourist_db, "c3")
        anchor = tourist_db.tuple_by_label("c3")
        linear.contains_superset(probe, anchor=anchor)
        indexed.contains_superset(probe, anchor=anchor)
        assert indexed.statistics.sets_scanned < linear.statistics.sets_scanned

    def test_indexed_probe_falls_back_to_full_scan_without_anchor(self, tourist_db):
        store = CompleteStore(anchor_relation=None, use_index=True)
        store.add(by_label(tourist_db, "c1", "a1"))
        # No anchor tuple available: the probe still works (full scan).
        assert store.contains_superset(by_label(tourist_db, "a1"))


class TestListIncompletePool:
    def test_add_pop_and_membership(self, tourist_db):
        pool = ListIncompletePool("Climates")
        first = by_label(tourist_db, "c1")
        second = by_label(tourist_db, "c2")
        pool.add(first)
        pool.add(second)
        assert len(pool) == 2 and bool(pool)
        assert first in pool
        assert pool.pop() == first
        assert first not in pool
        assert pool.pop() == second
        assert not pool

    def test_pop_empty_raises(self, tourist_db):
        with pytest.raises(IndexError):
            ListIncompletePool("Climates").pop()

    def test_duplicate_add_is_ignored(self, tourist_db):
        pool = ListIncompletePool("Climates")
        ts = by_label(tourist_db, "c1")
        pool.add(ts)
        pool.add(ts)
        assert len(pool) == 1

    def test_paper_extraction_order(self, tourist_db):
        """New candidates are processed before older entries, as in Table 3."""
        pool = ListIncompletePool("Climates", extraction="paper")
        a = by_label(tourist_db, "c1")
        b = by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == a
        fresh1 = by_label(tourist_db, "c1", "a2")
        fresh2 = by_label(tourist_db, "c1", "s2")
        pool.add(fresh1)
        pool.add(fresh2)
        assert pool.as_list() == [fresh1, fresh2, b]
        assert pool.pop() == fresh1

    def test_fifo_extraction_order(self, tourist_db):
        pool = ListIncompletePool("Climates", extraction="fifo")
        a, b = by_label(tourist_db, "c1"), by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == a
        c = by_label(tourist_db, "c1", "a2")
        pool.add(c)
        assert pool.as_list() == [b, c]

    def test_lifo_extraction_order(self, tourist_db):
        pool = ListIncompletePool("Climates", extraction="lifo")
        a, b = by_label(tourist_db, "c1"), by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == b

    def test_invalid_extraction_order(self):
        with pytest.raises(ValueError):
            ListIncompletePool("Climates", extraction="random")

    def test_replace_keeps_position(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        merged = by_label(tourist_db, "c1", "a2", "s1")
        pool.replace(a, merged)
        assert pool.as_list() == [merged, b]

    def test_replace_with_existing_member_just_drops_old(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c1", "a2", "s1")
        pool.add(a)
        pool.add(b)
        pool.replace(a, b)
        assert pool.as_list() == [b]

    def test_replace_onto_queued_union_keeps_the_insertion_point(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a, b = by_label(tourist_db, "c1"), by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        pool.pop()
        fresh = by_label(tourist_db, "c1", "a2")
        pool.add(fresh)
        pool.replace(fresh, b)  # the union is already queued
        later = by_label(tourist_db, "c1", "s2")
        pool.add(later)
        assert pool.as_list() == [later, b]

    def test_replace_of_absent_member_raises(self, tourist_db):
        pool = ListIncompletePool("Climates")
        with pytest.raises(KeyError):
            pool.replace(by_label(tourist_db, "c1"), by_label(tourist_db, "c2"))

    def test_candidates_with_index_filters_by_anchor_tuple(self, tourist_db):
        pool = ListIncompletePool("Climates", use_index=True)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        probe = by_label(tourist_db, "c1", "s2")
        assert pool.candidates(probe) == [a]
        probe2 = by_label(tourist_db, "c3")
        assert pool.candidates(probe2) == []

    def test_candidates_without_index_returns_all(self, tourist_db):
        pool = ListIncompletePool("Climates", use_index=False)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        assert set(pool.candidates(by_label(tourist_db, "c3"))) == {a, b}

    def test_statistics_are_tracked(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1")
        pool.add(a)
        pool.candidates(a)
        pool.pop()
        stats = pool.statistics.as_dict()
        assert stats["additions"] == 1
        assert stats["removals"] == 1
        assert stats["sets_scanned"] == 1
        assert stats["peak_size"] == 1


class TestPriorityIncompletePool:
    @pytest.fixture
    def ranking(self):
        return MaxRanking(tourist_importance())

    def test_pop_returns_highest_ranked(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        low = by_label(tourist_db, "c1")       # imp 1
        high = by_label(tourist_db, "c3")      # imp 3
        middle = by_label(tourist_db, "c2")    # imp 2
        for ts in (low, high, middle):
            pool.add(ts)
        assert pool.peek() == high
        assert pool.peek_score() == 3.0
        assert pool.pop() == high
        assert pool.pop() == middle
        assert pool.pop() == low

    def test_peek_on_empty_pool(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        assert pool.peek() is None and pool.peek_score() is None
        with pytest.raises(IndexError):
            pool.pop()

    def test_replace_reranks(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        low = by_label(tourist_db, "c1")
        middle = by_label(tourist_db, "c2")
        pool.add(low)
        pool.add(middle)
        # Merging c1 with the 4-star hotel lifts it above c2.
        boosted = by_label(tourist_db, "c1", "a1")
        pool.replace(low, boosted)
        assert pool.pop() == boosted

    def test_duplicate_add_ignored(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        ts = by_label(tourist_db, "c1")
        pool.add(ts)
        pool.add(ts)
        assert len(pool) == 1

    def test_candidates_with_index(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking, use_index=True)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        assert pool.candidates(by_label(tourist_db, "c1")) == [a]

    def test_as_list_is_rank_ordered(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        for label in ("c1", "c2", "c3"):
            pool.add(by_label(tourist_db, label))
        ordered = pool.as_list()
        assert [ranking(ts) for ts in ordered] == [3.0, 2.0, 1.0]

    def test_replace_of_absent_member_raises(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        with pytest.raises(KeyError):
            pool.replace(by_label(tourist_db, "c1"), by_label(tourist_db, "c2"))


# --------------------------------------------------------------------- #
# model-based: random operation sequences against plain-list models
# --------------------------------------------------------------------- #
_DB = tourist_database()
_EXTRAS = ["a1", "a2", "s1", "s2", "s3"]
#: Anchor-bearing sets: one Climates tuple plus at most two other tuples.
_UNIVERSE = [
    by_label(_DB, anchor, *extra)
    for anchor in ("c1", "c2", "c3")
    for size in range(3)
    for extra in itertools.combinations(_EXTRAS, size)
]
_TUPLES = [_DB.tuple_by_label(label) for label in ["c1", "c2", "c3"] + _EXTRAS]

_ADD = st.tuples(st.just("add"), st.integers(0, len(_UNIVERSE) - 1))
# replace(member #i, universe set #j), or by another member (#j) when the
# flag is set: the "union already queued" branch of Line 15.
_REPLACE = st.tuples(st.just("replace"), st.integers(0, 50), st.integers(0, 50), st.booleans())
_OPS = st.lists(
    # Adds and replaces are drawn more often than the cursor-resetting pop
    # and eviction, so runs of inserts around vacated slots are common.
    st.one_of(
        _ADD,
        _ADD,
        _ADD,
        _REPLACE,
        _REPLACE,
        st.tuples(st.just("pop")),
        st.tuples(st.just("discard"), st.integers(0, len(_TUPLES) - 1)),
    ),
    min_size=20,
    max_size=60,
)

MODEL_RUNS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class _ListModel:
    """The paper's linked list, spelled with ``list.insert``/``list.index``."""

    def __init__(self, extraction):
        self.extraction, self.items, self.cursor = extraction, [], 0
        self.arrival = {}  # member -> when it entered the pool (bucket order)
        self.clock = itertools.count()

    def add(self, s):
        if s in self.items:
            return
        if self.extraction == "paper":
            self.items.insert(self.cursor, s)
            self.cursor += 1
        else:
            self.items.append(s)
        self.arrival[s] = next(self.clock)

    def pop(self):
        self.cursor = 0
        return self.items.pop(-1 if self.extraction == "lifo" else 0)

    def replace(self, old, new):
        position = self.items.index(old)
        if new in self.items:
            del self.items[position]
            self.cursor -= position < self.cursor
        else:
            self.items[position] = new
            self.arrival[new] = next(self.clock)

    def discard_containing(self, dead):
        kept = [s for s in self.items if dead not in s]
        if len(kept) < len(self.items):
            self.items, self.cursor = kept, 0

    def bucket(self, probe):
        anchor = probe.tuple_from("Climates")
        same = [s for s in self.items if s.tuple_from("Climates") == anchor]
        return sorted(same, key=self.arrival.__getitem__)


def _run_ops(ops, pool, model, members, check):
    for op in ops:
        if op[0] == "add":
            pool.add(_UNIVERSE[op[1]])
            model.add(_UNIVERSE[op[1]])
        elif op[0] == "pop":
            if members():
                assert pool.pop() == model.pop()
            else:
                with pytest.raises(IndexError):
                    pool.pop()
        elif op[0] == "replace":
            current = members()
            if not current:
                continue
            old = current[op[1] % len(current)]
            new = current[op[2] % len(current)] if op[3] else _UNIVERSE[op[2] % len(_UNIVERSE)]
            if new == old:
                continue
            pool.replace(old, new)
            model.replace(old, new)
        else:
            dead = _TUPLES[op[1]]
            before = len(pool)
            evicted = pool.discard_containing([dead])
            model.discard_containing(dead)
            assert evicted == before - len(pool)
        check()


@MODEL_RUNS
@given(ops=_OPS, use_index=st.booleans())
@pytest.mark.parametrize("extraction", ListIncompletePool.EXTRACTION_ORDERS)
def test_list_pool_matches_plain_list_model(extraction, ops, use_index):
    pool = ListIncompletePool("Climates", use_index=use_index, extraction=extraction)
    model = _ListModel(extraction)

    def check():
        assert pool.as_list() == model.items
        assert list(pool) == model.items
        assert len(pool) == len(model.items) and bool(pool) == bool(model.items)
        assert all((s in pool) == (s in model.items) for s in _UNIVERSE)
        for probe in _UNIVERSE[:: len(_UNIVERSE) // 3]:
            expected = model.bucket(probe) if use_index else model.items
            assert pool.candidates(probe) == expected

    _run_ops(ops, pool, model, lambda: list(model.items), check)
    while model.items:
        assert pool.pop() == model.pop()
    assert not pool


class _PriorityModel:
    """Rank-ordered extraction, ties by arrival, as a sorted plain list.

    Removal is lazy, as in the heap: a removed set's entry stays until a
    ``peek`` or ``pop`` finds it at the front, so a set queued again before
    that keeps the place of its earlier entry among equal ranks.
    """

    def __init__(self, ranking):
        self.ranking, self.entries, self.live = ranking, [], set()
        self.arrival, self.clock = {}, itertools.count()

    def order(self):
        live = [s for _, _, s in self.entries if s in self.live]
        return list(dict.fromkeys(live))

    def _push(self, s):
        self.arrival[s] = next(self.clock)
        self.entries.append((-self.ranking(s), self.arrival[s], s))
        self.entries.sort(key=lambda entry: entry[:2])
        self.live.add(s)

    def add(self, s):
        if s not in self.live:
            self._push(s)

    def peek(self):
        while self.entries and self.entries[0][2] not in self.live:
            del self.entries[0]
        return self.entries[0][2] if self.entries else None

    def pop(self):
        s = self.peek()
        del self.entries[0]
        self.live.discard(s)
        return s

    def replace(self, old, new):
        self.live.discard(old)
        self.add(new)

    def discard_containing(self, dead):
        self.live = {s for s in self.live if dead not in s}

    def bucket(self, probe):
        anchor = probe.tuple_from("Climates")
        same = [s for s in self.live if s.tuple_from("Climates") == anchor]
        return sorted(same, key=self.arrival.__getitem__)


@MODEL_RUNS
@given(ops=_OPS, use_index=st.booleans())
def test_priority_pool_matches_sorted_list_model(ops, use_index):
    ranking = lambda ts: float(len(ts))  # noqa: E731 - many ties on purpose
    pool = PriorityIncompletePool("Climates", ranking, use_index=use_index)
    model = _PriorityModel(ranking)

    def check():
        assert pool.peek() == model.peek()
        order = model.order()
        assert len(pool) == len(order) and bool(pool) == bool(order)
        assert all((s in pool) == (s in order) for s in _UNIVERSE)
        for probe in _UNIVERSE[:: len(_UNIVERSE) // 3]:
            if use_index:
                assert pool.candidates(probe) == model.bucket(probe)
            else:
                assert sorted(pool.candidates(probe), key=order.index) == order

    _run_ops(ops, pool, model, model.order, check)
    while model.live:
        assert pool.pop() == model.pop()
    assert not pool
