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
from repro.core.ranking import MaxRanking
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.tourist import (
    noisy_tourist_database,
    noisy_tourist_similarity,
    tourist_database,
    tourist_importance,
)

BACKENDS = ("serial", "batched")


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

    def test_priority(self, backend, use_index):
        stream = priority_incremental_fd(
            tourist_database(), MaxRanking(tourist_importance()),
            use_index=use_index, backend=backend,
        )
        assert _ranked(stream) == GOLDEN["priority/tourist"]
