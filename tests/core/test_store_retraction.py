"""Live-mask retraction: stores and pools forget dead tuples without rebuilds."""

from __future__ import annotations

import pytest

from repro.core.priority import PriorityState, priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.core.store import CompleteStore, ListIncompletePool, PriorityIncompletePool
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.relation import Relation


def _database():
    database = Database()
    first = Relation("R1", ["A", "B"])
    second = Relation("R2", ["B", "C"])
    for row in range(3):
        first.add([f"a{row}", f"b{row}"])
        second.add([f"b{row}", f"c{row}"])
    database.add_relation(first)
    database.add_relation(second)
    return database


def _pairs(database):
    """The three joined {r1_i, r2_i} sets plus catalog handles."""
    catalog = database.catalog()
    first, second = database.relations
    sets = [
        TupleSet.of(a, b, catalog=catalog)
        for a, b in zip(first.tuples, second.tuples)
    ]
    return catalog, sets


@pytest.mark.parametrize("use_index", [False, True])
class TestCompleteStoreRetraction:
    def test_retracts_exactly_the_sets_containing_a_dead_tuple(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        for tuple_set in sets:
            store.add(tuple_set)
        victim = database.relation("R1").tuple_by_label("r2")
        database.remove_tuple("R1", "r2")
        retracted = store.retract_containing({victim}, catalog=catalog)
        assert retracted == [sets[1]]
        assert len(store) == 2
        assert sets[1] not in store
        assert sets[0] in store and sets[2] in store

    def test_retracted_sets_stop_subsuming(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        store.add(sets[0])
        member = sorted(sets[0])[0]
        probe = TupleSet.singleton(member, catalog=catalog)
        assert store.contains_superset(probe, anchor=member)
        dead = next(t for t in sets[0] if t is not member)
        database.remove_tuple(dead.relation_name, dead.label)
        store.retract_containing({dead}, catalog=catalog)
        assert not store.contains_superset(probe, anchor=member)

    def test_surviving_buckets_are_cleaned(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        for tuple_set in sets:
            store.add(tuple_set)
        dead = database.relation("R2").tuple_by_label("r1")
        survivor = database.relation("R1").tuple_by_label("r1")
        database.remove_tuple("R2", "r1")
        store.retract_containing({dead}, catalog=catalog)
        # The surviving member tuple's bucket no longer serves the dead set.
        probe = TupleSet.singleton(survivor, catalog=catalog)
        assert not store.contains_superset(probe, anchor=survivor)

    def test_emission_order_and_dedup(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        store.add(sets[1])
        store.add(sets[0])
        store.add(sets[1])  # a covered re-add, as the delta pass performs
        dead = {
            database.relation("R1").tuple_by_label("r1"),
            database.relation("R1").tuple_by_label("r2"),
        }
        for t in dead:
            database.remove_tuple(t.relation_name, t.label)
        retracted = store.retract_containing(dead, catalog=catalog)
        assert retracted == [sets[1], sets[0]]  # insertion order, deduplicated
        assert len(store) == 0


class TestPoolEviction:
    def test_list_pool_discards_members_containing_dead_tuples(self):
        database = _database()
        catalog, sets = _pairs(database)
        pool = ListIncompletePool("R1", use_index=True)
        for tuple_set in sets:
            pool.add(tuple_set)
        victim = database.relation("R2").tuple_by_label("r2")
        assert pool.discard_containing({victim}) == 1
        assert len(pool) == 2
        assert sets[1] not in pool
        assert pool.discard_containing({victim}) == 0
        # The index is clean: no candidate list still serves the victim.
        anchor = sets[1].tuple_from("R1")
        assert sets[1] not in pool.candidates(TupleSet.singleton(anchor, catalog=catalog))

    def test_priority_pool_discards_and_heap_skips(self):
        database = _database()
        catalog, sets = _pairs(database)
        ranking = MaxRanking(lambda t: float(ord(t.label[-1])))
        pool = PriorityIncompletePool("R1", ranking, use_index=True)
        for tuple_set in sets:
            pool.add(tuple_set)
        top = pool.peek()
        dead = next(iter(top))
        assert pool.discard_containing({dead}) == 1
        assert pool.peek() != top
        assert len(pool) == 2


class TestPriorityStateRetract:
    def test_retract_evicts_queues_and_complete(self):
        database = _database()
        database.catalog()
        ranking = MaxRanking(lambda t: 1.0)
        state = PriorityState(database, ranking, use_index=True)
        results = list(state.results())
        assert results
        victim = database.relation("R1").tuple_by_label("r1")
        database.remove_tuple("R1", "r1")
        retracted = state.retract([victim])
        assert all(victim in tuple_set for tuple_set in retracted)
        assert all(victim not in tuple_set for tuple_set in state.complete)
        for pool in state.pools:
            assert all(victim not in member for member in pool)

    def test_retracted_results_match_a_fresh_post_deletion_run(self):
        database = _database()
        database.catalog()
        ranking = MaxRanking(lambda t: float(ord(t.label[-1])))
        state = PriorityState(database, ranking, use_index=True)
        list(state.results())
        victim = database.relation("R2").tuple_by_label("r3")
        database.remove_tuple("R2", "r3")
        state.retract([victim])
        surviving = {ts.labels() for ts in state.complete}
        fresh = {
            ts.labels()
            for ts, _ in priority_incremental_fd(database, ranking, use_index=True)
        }
        # Survivors are exactly the fresh results that are not newly unblocked
        # (re-derivation is the maintainer's job, not the state's).
        assert surviving <= fresh
        assert all(victim.label not in labels for labels in surviving)
