"""Cross-backend equivalence: the serial and sharded schedules.

In the style of ``tests/core/test_tupleset_equivalence.py``: the sharded
backend must be observationally identical to the serial reference on
randomized workloads — identical result *sets* everywhere, and identical
result *order* wherever it runs the inherited serial step in-process (a
single pass, the reuse strategies, the priority driver) or fans out whole
passes (the approximate predicate, which is not bucket-sound).
"""

from __future__ import annotations

import pytest

from repro.core.approx import approx_full_disjunction
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.priority import priority_incremental_fd
from repro.core.ranked_approx import ranked_approx_full_disjunction
from repro.core.ranking import MaxRanking
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ShardedBackend,
    resolve_backend,
)
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    yield "star", star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=11)
    for seed in (0, 1, 2):
        yield f"random-{seed}", random_database(
            relations=3,
            attributes=5,
            arity=3,
            tuples_per_relation=4,
            domain_size=2,
            null_rate=0.25,
            seed=seed,
        )


WORKLOADS = list(_workloads())
WORKLOAD_IDS = [name for name, _ in WORKLOADS]

#: The sharded backend inherits the serial step, so every run that does not
#: split a pass into bucket ranges must replay the serial sequence.  Its plan
#: is a pure function of the database, so one worker and two must agree.
SHARDED_BACKENDS = ("sharded:1", "sharded:2")


def _labelled(results):
    return [ts.labels() for ts in results]


class TestResolveBackend:
    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("sharded"), ShardedBackend)

    def test_sharded_runs_the_serial_step(self):
        assert isinstance(resolve_backend("sharded"), SerialBackend)
        assert ShardedBackend.next_result is SerialBackend.next_result

    def test_instances_pass_through(self):
        backend = ShardedBackend(max_workers=3)
        assert resolve_backend(backend) is backend

    def test_sharded_worker_suffix(self):
        backend = resolve_backend("sharded:5")
        assert backend.max_workers == 5

    def test_workers_argument(self):
        assert resolve_backend("sharded", workers=3).max_workers == 3
        # The suffix wins over the argument.
        assert resolve_backend("sharded:4", workers=3).max_workers == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("quantum")

    @pytest.mark.parametrize("name", ["batched", "async"])
    def test_removed_names_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend(name)

    def test_worker_count_on_in_process_backends_is_rejected(self):
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("serial", workers=8)
        with pytest.raises(ValueError, match="no worker count"):
            resolve_backend("serial:4")

    def test_bad_worker_suffix_raises(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            resolve_backend("sharded:many")

    def test_every_advertised_backend_resolves(self):
        for name in BACKENDS:
            assert isinstance(resolve_backend(name), ExecutionBackend)


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_full_disjunction_matches_serial_sets(
    name, database, use_index, backend
):
    # Bucket ranges reorder answers within a pass, never the answer set.
    serial = full_disjunction(database, use_index=use_index, backend="serial")
    sharded = full_disjunction(database, use_index=use_index, backend=backend)
    assert set(_labelled(serial)) == set(_labelled(sharded))
    assert len(serial) == len(sharded)


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_incremental_fd_pass_is_order_identical(name, database, backend):
    anchor = database.relation_names[0]
    serial = list(incremental_fd(database, anchor, use_index=True))
    sharded = list(
        incremental_fd(database, anchor, use_index=True, backend=backend)
    )
    assert _labelled(serial) == _labelled(sharded)


@pytest.mark.parametrize(
    "initialization", ["previous-results", "reduced-previous"]
)
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_reuse_strategies_match_serial(initialization, backend):
    database = chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    serial = full_disjunction(
        database, use_index=True, initialization=initialization, backend="serial"
    )
    sharded = full_disjunction(
        database, use_index=True, initialization=initialization, backend=backend
    )
    assert _labelled(serial) == _labelled(sharded)


@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_priority_driver_is_order_identical(name, database, backend):
    ranking = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 13))
    serial = list(priority_incremental_fd(database, ranking, use_index=True))
    sharded = list(
        priority_incremental_fd(database, ranking, use_index=True, backend=backend)
    )
    assert [(ts.labels(), score) for ts, score in serial] == [
        (ts.labels(), score) for ts, score in sharded
    ]


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_approx_driver_matches_serial(use_index, backend):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    amin = MinJoin(ExactMatchSimilarity())
    serial = approx_full_disjunction(database, amin, 0.6, use_index=use_index)
    sharded = approx_full_disjunction(
        database, amin, 0.6, use_index=use_index, backend=backend
    )
    assert _labelled(serial) == _labelled(sharded)


@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_sharded_ranked_approx_driver_is_order_identical(backend):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    amin = MinJoin(ExactMatchSimilarity())
    ranking = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 7))
    serial = list(
        ranked_approx_full_disjunction(database, amin, 0.6, ranking, use_index=True)
    )
    sharded = list(
        ranked_approx_full_disjunction(
            database, amin, 0.6, ranking, use_index=True, backend=backend
        )
    )
    assert [(ts.labels(), score) for ts, score in serial] == [
        (ts.labels(), score) for ts, score in sharded
    ]


class TestShardedBackend:
    """Process fan-out: slower to spin up, so only the key checks run it."""

    def test_bucket_full_disjunction_matches_serial_sets(self):
        """Bucket granularity reorders within a pass but never the answer set."""
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        serial = full_disjunction(database, use_index=True, backend="serial")
        sharded = full_disjunction(database, use_index=True, backend="sharded:2")
        assert set(_labelled(serial)) == set(_labelled(sharded))
        assert len(serial) == len(sharded)

    def test_statistics_merge_deterministically(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        first, second = FDStatistics(), FDStatistics()
        full_disjunction(database, use_index=True, statistics=first, backend="sharded:2")
        full_disjunction(database, use_index=True, statistics=second, backend="sharded:2")
        assert first.as_dict() == second.as_dict()
        serial = FDStatistics()
        full_disjunction(database, use_index=True, statistics=serial, backend="serial")
        # The produced-result count is schedule-independent: each bucket
        # range yields exactly its anchored FD_i members, once each.
        assert serial.results == first.results

    def test_approx_passes_match_serial(self):
        """ROADMAP item: approx pass scheduling goes through the backend too."""
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
        )
        amin = MinJoin(ExactMatchSimilarity())
        serial = approx_full_disjunction(database, amin, 0.6, use_index=True)
        sharded = approx_full_disjunction(
            database, amin, 0.6, use_index=True, backend="sharded:2"
        )
        assert _labelled(serial) == _labelled(sharded)

    def test_first_k_abandons_remaining_passes(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        serial = full_disjunction(database, backend="serial")
        # Bucket ranges stream a (differently ordered) prefix of the same
        # answer set.
        bucket_prefix = first_k(database, 3, backend="sharded:2")
        assert len(bucket_prefix) == 3
        full = {frozenset(labels) for labels in _labelled(serial)}
        assert all(frozenset(labels) in full for labels in _labelled(bucket_prefix))

    def test_results_are_interned_in_the_parent_catalog(self):
        database = chain_database(
            relations=3, tuples_per_relation=4, domain_size=3, seed=9
        )
        catalog = database.catalog()
        for tuple_set in full_disjunction(database, backend="sharded:2"):
            assert tuple_set.catalog is catalog

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedBackend(max_workers=0)
        with pytest.raises(ValueError, match="worker count"):
            resolve_backend("sharded", workers=0)
        with pytest.raises(ValueError, match="worker count"):
            resolve_backend("sharded:-1")

    def test_empty_database_yields_nothing(self):
        from repro.relational.database import Database

        assert full_disjunction(Database(), backend="sharded") == []
        assert full_disjunction(Database(), backend="serial") == []
