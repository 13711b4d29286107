"""Ranked retrieval of approximate full disjunctions.

The end of Section 6 notes that ``ApproxIncrementalFD`` "can also be adapted
to return tuples in ranking order, for a monotonically c-determined ranking
function … by adapting it in the spirit of PriorityIncrementalFD".  That
adaptation is the priority driver (:mod:`repro.core.priority`) under the
approximate predicate (:class:`~repro.core.predicate.ApproximatePredicate`):
per-relation priority queues seeded with every connected tuple set of size
at most ``c`` that qualifies under the approximate join function, a shared
``Complete`` store, and extraction by highest rank, with the starred
``GetNextResult`` doing the per-step work.

The correctness ingredients are the same as for the exact ranked algorithm:

* every member of ``AFD(R, A, τ)`` has a connected witness subset of size at
  most ``c`` with the same rank (c-determination); the witness qualifies under
  ``A`` because ``A`` is acceptable, so it is present in some queue after
  initialization;
* monotonicity of the ranking makes the rank of a produced (maximal) result
  at least the rank of the queue entry it grew from, so results come out in
  non-increasing rank order (the argument of Lemma 5.4).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.relational.database import Database
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.incremental import FDStatistics
from repro.core.predicate import ApproximatePredicate
from repro.core.priority import RankedResult, ranked_results
from repro.core.ranking import RankingFunction
from repro.core.tupleset import TupleSet


def enumerate_qualifying_subsets(
    database: Database,
    anchor_name: str,
    max_size: int,
    join_function: ApproximateJoinFunction,
    threshold: float,
    catalog=None,
) -> Iterator[TupleSet]:
    """Connected tuple sets of size ≤ ``max_size`` containing an ``R_i`` tuple with ``A ≥ τ``.

    Because ``A`` is acceptable (anti-monotone on connected sets), growing
    sets one tuple at a time and pruning as soon as the value drops below the
    threshold enumerates every qualifying set.
    """
    yield from ApproximatePredicate(join_function, threshold).subsets(
        database,
        (TupleSet.singleton(t, catalog=catalog) for t in database.relation(anchor_name)),
        max_size,
    )


def ranked_approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    ranking: RankingFunction,
    k: Optional[int] = None,
    rank_threshold: Optional[float] = None,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[RankedResult]:
    """Generate ``AFD(R, A, τ)`` in non-increasing rank order.

    Parameters mirror :func:`repro.core.priority.priority_incremental_fd`,
    with the approximate join function and its threshold added.  ``k`` limits
    the number of results; ``rank_threshold`` stops once no remaining result
    can rank that high (the approximate analogue of Remark 5.6).  ``backend``
    schedules each step through the execution layer (:mod:`repro.exec`); the
    output order is backend-independent.
    """
    yield from ranked_results(
        database, ranking, ApproximatePredicate(join_function, threshold),
        k=k, threshold=rank_threshold, use_index=use_index,
        statistics=statistics, backend=backend,
    )


def approx_top_k(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    ranking: RankingFunction,
    k: int,
    use_index: bool = False,
    backend=None,
) -> List[RankedResult]:
    """The top-``(k, f)`` problem over the ``(A, τ)``-approximate full disjunction."""
    return list(
        ranked_approx_full_disjunction(
            database, join_function, threshold, ranking, k=k, use_index=use_index,
            backend=backend,
        )
    )
