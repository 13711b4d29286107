"""The work counters tell the truth, under every backend and every predicate.

* An abandoned run (first-k retrieval) records the work it did.
* ``results_emitted`` counts what the caller gets, after the cross-pass
  duplicate suppression.
* The exact and the approximate predicate drive the same loops, so an
  approximate join function that *is* join consistency reports the exact
  run's counters, pass for pass.
"""

import pytest

from repro.core.approx import approx_full_disjunction_sets
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import first_k, full_disjunction_sets
from repro.core.incremental import FDStatistics
from repro.core.priority import priority_incremental_fd
from repro.core.ranked_approx import ranked_approx_full_disjunction
from repro.core.ranking import MaxRanking
from repro.exec import BACKENDS
from repro.workloads.generators import chain_database

#: The counters both predicates must agree on.
COUNTERS = (
    "results",
    "results_emitted",
    "candidates_generated",
    "candidates_merged",
    "tuple_reads",
    "scan_passes",
)


def _chain():
    return chain_database(3, 8, seed=1)


def _row_importance(t):
    # Labels are ``r<relation>_<row>``.
    return float(t.label.split("_")[1])


def _counters(statistics):
    return {name: getattr(statistics, name) for name in COUNTERS}


@pytest.mark.parametrize("backend", BACKENDS)
def test_abandoned_first_k_records_its_work(backend):
    statistics = FDStatistics()
    answers = first_k(_chain(), 3, statistics=statistics, backend=backend)
    assert len(answers) == 3
    assert statistics.candidates_generated > 0
    assert statistics.results > 0
    assert statistics.results_emitted == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_results_emitted_counts_delivered_answers(backend):
    statistics = FDStatistics()
    answers = list(full_disjunction_sets(_chain(), statistics=statistics, backend=backend))
    assert statistics.results_emitted == len(answers) == 16
    # Every answer with j tuples is produced by j passes.
    assert statistics.results == sum(len(answer) for answer in answers)


# ``sharded`` splits exact passes into anchor-bucket ranges but runs
# approximate passes whole, so the two do different work there by design.
@pytest.mark.parametrize("backend", ["serial"])
def test_exact_and_exact_match_approx_report_equal_counters(backend):
    exact = FDStatistics()
    exact_answers = list(
        full_disjunction_sets(_chain(), statistics=exact, backend=backend)
    )
    approx = FDStatistics()
    approx_answers = list(
        approx_full_disjunction_sets(
            _chain(), MinJoin(ExactMatchSimilarity()), 1.0,
            statistics=approx, backend=backend,
        )
    )
    assert set(exact_answers) == set(approx_answers)
    assert exact.results_emitted == 16
    assert _counters(exact) == _counters(approx)


@pytest.mark.parametrize("backend", BACKENDS)
def test_priority_and_exact_match_ranked_approx_report_equal_counters(backend):
    priority = FDStatistics()
    ranked = list(
        priority_incremental_fd(
            _chain(), MaxRanking(_row_importance), statistics=priority,
            backend=backend,
        )
    )
    approx = FDStatistics()
    ranked_approx = list(
        ranked_approx_full_disjunction(
            _chain(), MinJoin(ExactMatchSimilarity()), 1.0,
            MaxRanking(_row_importance), statistics=approx, backend=backend,
        )
    )
    assert ranked == ranked_approx
    assert priority.results_emitted == len(ranked) == 16
    assert _counters(priority) == _counters(approx)


def test_sharded_approx_passes_report_serial_counters():
    # Approximate passes fan out whole, one task per relation, so the merged
    # counters are the serial run's, work stores included.
    join = MinJoin(ExactMatchSimilarity())
    serial = FDStatistics()
    serial_answers = list(
        approx_full_disjunction_sets(_chain(), join, 1.0, statistics=serial)
    )
    sharded = FDStatistics()
    sharded_answers = list(
        approx_full_disjunction_sets(
            _chain(), join, 1.0, statistics=sharded, backend="sharded:2"
        )
    )
    assert sharded_answers == serial_answers
    assert _counters(sharded) == _counters(serial)
    for key in ("complete_sets_scanned", "incomplete_sets_scanned"):
        assert sharded.extras[key] == serial.extras[key]
