"""Golden answer streams: the exact emission order of every engine, pinned.

The other suites compare result *sets* against the naive oracle, or compare
backends with each other inside one build.  This one pins the ordered label
streams as literals, so a refactor of the drivers that reorders answers —
under any backend or index setting — fails here even when every set is
still right.

A stream item is the sorted member labels of one answer, joined by spaces;
ranked items append ``@score``.  The dirty-sources ranking gives every tuple
a distinct importance, so rank ties only arise between answers sharing their
top tuple, and the streams do not depend on the hash seed.
"""

import pytest

from repro.core.approx import approx_full_disjunction_sets
from repro.core.approx_join import EditDistanceSimilarity, MinJoin
from repro.core.full_disjunction import full_disjunction_sets
from repro.core.priority import priority_incremental_fd
from repro.core.ranked_approx import ranked_approx_full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.ranking import MaxRanking
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.generators import star_database
from repro.workloads.tourist import (
    noisy_tourist_database,
    noisy_tourist_similarity,
    tourist_database,
    tourist_importance,
)

BACKENDS = ("serial",)

#: The process-pool backend at one and at two workers.  Its bucket-range
#: plan is a pure function of the database, so both must emit one stream.
SHARDED_BACKENDS = ("sharded:1", "sharded:2")


def _dirty_database():
    return dirty_sources_database(
        entities=8, sources=3, coverage=0.9, typo_rate=0.35, null_rate=0.05, seed=11
    )


def _dirty_importance(t):
    # Labels are ``t<source>_<entity>``: one distinct importance per tuple.
    source, entity = t.label[1:].split("_")
    return float(int(entity) * 10 + int(source))


#: ``name -> (database factory, join function factory, ranking factory)``.
APPROX_INPUTS = {
    "noisy": (
        noisy_tourist_database,
        lambda: MinJoin(noisy_tourist_similarity()),
        lambda: MaxRanking(tourist_importance()),
    ),
    "dirty": (
        _dirty_database,
        lambda: MinJoin(EditDistanceSimilarity()),
        lambda: MaxRanking(_dirty_importance),
    ),
}


def _star_database():
    # Two hub values over three spokes: twelve answers, and a bucket-major
    # sharded order that differs from the serial one.
    return star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=3)


#: ``name -> database factory`` for the exact full-disjunction streams.
FD_INPUTS = {"tourist": tourist_database, "star": _star_database}


def _labels(tuple_set):
    return " ".join(sorted(t.label for t in tuple_set))


def _ranked(stream):
    return [f"{_labels(tuple_set)}@{score:g}" for tuple_set, score in stream]


GOLDEN = {
    'approx/dirty/0.5': [
        't1_1 t3_1',
        't1_2 t2_2 t3_3',
        't1_2 t2_3 t3_6',
        't1_5 t2_3 t3_6',
        't1_5 t2_2 t3_6',
        't1_5 t2_4 t3_6',
        't1_5 t2_5 t3_6',
        't1_3 t2_5 t3_6',
        't1_3 t2_5 t3_4',
        't1_3 t2_3 t3_4',
        't1_5 t2_5 t3_3',
        't1_5 t2_5 t3_4',
        't1_5 t2_5 t3_2',
        't1_5 t2_3 t3_4',
        't1_5 t2_4 t3_5',
        't1_2 t2_5 t3_6',
        't1_2 t2_5 t3_3',
        't1_2 t2_2 t3_6',
        't1_3 t2_3 t3_6',
        't1_4 t2_4 t3_5',
        't1_5 t2_2 t3_3',
        't1_6 t2_6 t3_7',
        't1_7 t2_7 t3_8',
        't2_1',
    ],
    'approx/dirty/0.8': [
        't1_1',
        't1_2 t2_2',
        't1_3 t2_3',
        't1_4 t2_4',
        't1_5 t2_5',
        't1_6 t2_6',
        't1_7 t2_7',
        't2_1',
    ],
    'approx/noisy/0.5': [
        'a1 c1 s2',
        'a2 c1 s2',
        'a2 c1 s1',
        'c2 s3',
        'c2 s4',
        'a3 c3',
    ],
    'approx/noisy/0.8': [
        'c2 s3',
        'c2 s4',
        'a3 c3',
        'a1',
        'a2 s1',
    ],
    'fd/tourist': [
        'a1 c1',
        'a2 c1 s1',
        'c1 s2',
        'c2 s3',
        'c2 s4',
        'a3 c3',
    ],
    'fd/star': [
        's1_1 s2_2 s3_1',
        's1_1 s2_2 s3_2',
        's1_2 s2_2 s3_2',
        's1_2 s2_2 s3_4',
        's1_4 s2_2 s3_4',
        's1_4 s2_2 s3_2',
        's1_1 s2_2 s3_4',
        's1_2 s2_2 s3_1',
        's1_3 s2_1 s3_3',
        's1_3 s2_3 s3_3',
        's1_3 s2_4 s3_3',
        's1_4 s2_2 s3_1',
    ],
    'priority/tourist': [
        'a1 c1@4',
        'a3 c3@3',
        'a2 c1 s1@3',
        'c2 s3@2',
        'c2 s4@2',
        'c1 s2@1',
    ],
    'ranked_approx/dirty/0.5': [
        't1_7 t2_7 t3_8@83',
        't1_6 t2_6 t3_7@73',
        't1_2 t2_2 t3_6@63',
        't1_3 t2_3 t3_6@63',
        't1_5 t2_2 t3_6@63',
        't1_2 t2_3 t3_6@63',
        't1_2 t2_5 t3_6@63',
        't1_5 t2_3 t3_6@63',
        't1_3 t2_5 t3_6@63',
        't1_5 t2_4 t3_6@63',
        't1_5 t2_5 t3_6@63',
        't1_5 t2_4 t3_5@53',
        't1_4 t2_4 t3_5@53',
        't1_2 t2_5 t3_3@52',
        't1_5 t2_5 t3_3@52',
        't1_5 t2_5 t3_2@52',
        't1_5 t2_5 t3_4@52',
        't1_3 t2_5 t3_4@52',
        't1_5 t2_2 t3_3@51',
        't1_5 t2_3 t3_4@51',
        't1_3 t2_3 t3_4@43',
        't1_2 t2_2 t3_3@33',
        't1_1 t3_1@13',
        't2_1@12',
    ],
    'ranked_approx/dirty/0.8': [
        't1_7 t2_7@72',
        't1_6 t2_6@62',
        't1_5 t2_5@52',
        't1_4 t2_4@42',
        't1_3 t2_3@32',
        't1_2 t2_2@22',
        't2_1@12',
        't1_1@11',
    ],
    'sharded/star': [
        's1_1 s2_2 s3_1',
        's1_1 s2_2 s3_2',
        's1_1 s2_2 s3_4',
        's1_2 s2_2 s3_1',
        's1_2 s2_2 s3_2',
        's1_2 s2_2 s3_4',
        's1_3 s2_1 s3_3',
        's1_3 s2_3 s3_3',
        's1_3 s2_4 s3_3',
        's1_4 s2_2 s3_1',
        's1_4 s2_2 s3_2',
        's1_4 s2_2 s3_4',
    ],
    'sharded/tourist': [
        'a1 c1',
        'a2 c1 s1',
        'c1 s2',
        'c2 s3',
        'c2 s4',
        'a3 c3',
    ],
    'ranked_approx/noisy/0.5': [
        'a1 c1 s2@4',
        'a3 c3@3',
        'a2 c1 s2@3',
        'a2 c1 s1@3',
        'c2 s3@2',
        'c2 s4@2',
    ],
    'ranked_approx/noisy/0.8': [
        'a1@4',
        'a3 c3@3',
        'a2 s1@3',
        'c2 s3@2',
        'c2 s4@2',
    ],
}


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenStreams:
    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    @pytest.mark.parametrize("inputs", sorted(APPROX_INPUTS))
    def test_approx(self, inputs, threshold, backend, use_index):
        make_database, make_join, _ = APPROX_INPUTS[inputs]
        stream = approx_full_disjunction_sets(
            make_database(), make_join(), threshold, use_index=use_index,
            backend=backend,
        )
        assert [_labels(ts) for ts in stream] == GOLDEN[f"approx/{inputs}/{threshold}"]

    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    @pytest.mark.parametrize("inputs", sorted(APPROX_INPUTS))
    def test_ranked_approx(self, inputs, threshold, backend, use_index):
        make_database, make_join, make_ranking = APPROX_INPUTS[inputs]
        stream = ranked_approx_full_disjunction(
            make_database(), make_join(), threshold, make_ranking(),
            use_index=use_index, backend=backend,
        )
        assert _ranked(stream) == GOLDEN[f"ranked_approx/{inputs}/{threshold}"]

    def test_full_disjunction(self, backend, use_index):
        stream = full_disjunction_sets(
            tourist_database(), use_index=use_index, backend=backend
        )
        assert [_labels(ts) for ts in stream] == GOLDEN["fd/tourist"]

    def test_full_disjunction_star(self, backend, use_index):
        stream = full_disjunction_sets(
            _star_database(), use_index=use_index, backend=backend
        )
        assert [_labels(ts) for ts in stream] == GOLDEN["fd/star"]

    def test_priority(self, backend, use_index):
        stream = priority_incremental_fd(
            tourist_database(), MaxRanking(tourist_importance()),
            use_index=use_index, backend=backend,
        )
        assert _ranked(stream) == GOLDEN["priority/tourist"]


#: ``(incomplete, complete)`` ``sets_scanned`` of the merged sharded run,
#: keyed by ``inputs/use_index``: the same at every worker count.
SHARDED_SETS_SCANNED = {
    "star/False": (73, 142),
    "star/True": (73, 142),
    "tourist/False": (3, 8),
    "tourist/True": (3, 6),
}


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
class TestShardedGoldenStreams:
    """Bucket ranges merged in plan order: one stream at every worker count."""

    @pytest.mark.parametrize("inputs", sorted(FD_INPUTS))
    def test_full_disjunction(self, inputs, backend, use_index):
        statistics = FDStatistics()
        stream = full_disjunction_sets(
            FD_INPUTS[inputs](), use_index=use_index, backend=backend,
            statistics=statistics,
        )
        assert [_labels(ts) for ts in stream] == GOLDEN[f"sharded/{inputs}"]
        extras = statistics.extras
        assert (
            extras["incomplete_sets_scanned"], extras["complete_sets_scanned"]
        ) == SHARDED_SETS_SCANNED[f"{inputs}/{use_index}"]

    # The ranked drivers run the backend's step in the parent, so they
    # replay the serial streams at every worker count.
    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    @pytest.mark.parametrize("inputs", sorted(APPROX_INPUTS))
    def test_ranked_approx(self, inputs, threshold, backend, use_index):
        make_database, make_join, make_ranking = APPROX_INPUTS[inputs]
        stream = ranked_approx_full_disjunction(
            make_database(), make_join(), threshold, make_ranking(),
            use_index=use_index, backend=backend,
        )
        assert _ranked(stream) == GOLDEN[f"ranked_approx/{inputs}/{threshold}"]

    def test_priority(self, backend, use_index):
        stream = priority_incremental_fd(
            tourist_database(), MaxRanking(tourist_importance()),
            use_index=use_index, backend=backend,
        )
        assert _ranked(stream) == GOLDEN["priority/tourist"]


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("threshold", [0.5, 0.8])
@pytest.mark.parametrize("inputs", sorted(APPROX_INPUTS))
@pytest.mark.parametrize("backend", SHARDED_BACKENDS)
def test_approx_sharded(backend, inputs, threshold, use_index):
    # Approximate passes are not bucket-sound, so they fan out whole and the
    # plan-order merge replays the serial stream.
    make_database, make_join, _ = APPROX_INPUTS[inputs]
    stream = approx_full_disjunction_sets(
        make_database(), make_join(), threshold, use_index=use_index,
        backend=backend,
    )
    assert [_labels(ts) for ts in stream] == GOLDEN[f"approx/{inputs}/{threshold}"]
