"""``ApproxIncrementalFD`` and ``ApproxGetNextResult`` (Figs. 5 and 6).

Given an *acceptable* and *efficiently computable* approximate join function
``A`` (see :mod:`repro.core.approx_join`) and a threshold ``τ``, the
``(A, τ)``-approximate full disjunction ``AFD(R, A, τ)`` (Definition 6.2)
contains the maximal tuple sets ``T`` with ``A(T) ≥ τ``.  The paper computes
it in incremental polynomial time (Theorem 6.6) with the exact algorithms
plus three changes, marked ``*`` in its figures:

* initialization only admits singletons ``{t}`` with ``A({t}) ≥ τ``;
* every ``JCC(·)`` test becomes ``A(·) ≥ τ``;
* Line 8 may yield *several* maximal candidate subsets per outside tuple
  (Example 6.3), supplied by ``A.candidate_extensions``.

Those three changes are the :class:`~repro.core.predicate.ApproximatePredicate`;
the drivers are the exact ones.  Each entry point here builds the predicate
and hands it to the incremental driver (:mod:`repro.core.incremental`) or to
the backend's pass loop (:mod:`repro.exec`), so approximate runs share the
exact runs' stores, kernels, backends, tracing spans and statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.incremental import (
    AnchorSpec,
    FDStatistics,
    get_next_result,
    incremental_fd,
)
from repro.core.predicate import ApproximatePredicate
from repro.core.store import CompleteStore, ListIncompletePool
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet


def approx_get_next_result(
    database: Database,
    anchor: str,
    join_function: ApproximateJoinFunction,
    threshold: float,
    incomplete: ListIncompletePool,
    complete: CompleteStore,
    scanner: Optional[TupleScanner] = None,
    statistics: Optional[FDStatistics] = None,
) -> TupleSet:
    """One call of ``ApproxGetNextResult`` (Fig. 6)."""
    return get_next_result(
        database, anchor, incomplete, complete, scanner, statistics,
        predicate=ApproximatePredicate(join_function, threshold),
    )


def approx_incremental_fd(
    database: Database,
    anchor: AnchorSpec,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    scanner: Optional[TupleScanner] = None,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[TupleSet]:
    """``ApproxIncrementalFD(R, i, A, τ)`` (Fig. 5): generate ``AFD_i(R, A, τ)``.

    ``backend`` schedules each ``ApproxGetNextResult`` step through the
    execution layer (:mod:`repro.exec`); ``None`` is the serial reference.
    """
    yield from incremental_fd(
        database, anchor, use_index=use_index, scanner=scanner,
        statistics=statistics, backend=backend,
        predicate=ApproximatePredicate(join_function, threshold),
    )


def approx_full_disjunction_sets(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[TupleSet]:
    """Generate every member of ``AFD(R, A, τ)`` exactly once (Corollary 6.7).

    The independent per-relation ``ApproxIncrementalFD`` passes are the
    exact driver's singleton passes under the approximate predicate, so
    ``backend`` (``None`` means the serial reference) schedules them exactly
    like the exact ones — the sharded backend fans them out to its process
    pool, whole passes at a time.
    """
    from repro.exec import resolve_backend

    yield from resolve_backend(backend).run_singleton_passes(
        database, use_index=use_index, statistics=statistics,
        predicate=ApproximatePredicate(join_function, threshold),
    )


def approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> List[TupleSet]:
    """Materialise ``AFD(R, A, τ)`` as a list of tuple sets."""
    return list(
        approx_full_disjunction_sets(
            database,
            join_function,
            threshold,
            use_index=use_index,
            statistics=statistics,
            backend=backend,
        )
    )


class ApproximateFullDisjunction:
    """High-level handle on the ``(A, τ)``-approximate full disjunction."""

    def __init__(
        self,
        database: Database,
        join_function: ApproximateJoinFunction,
        threshold: float,
        use_index: bool = False,
        backend=None,
    ):
        self._database = database
        self._join_function = join_function
        self._threshold = threshold
        self._use_index = use_index
        self._backend = backend
        self.statistics = FDStatistics()
        self._cached: Optional[List[TupleSet]] = None

    @property
    def threshold(self) -> float:
        return self._threshold

    def __iter__(self) -> Iterator[TupleSet]:
        return approx_full_disjunction_sets(
            self._database,
            self._join_function,
            self._threshold,
            use_index=self._use_index,
            backend=self._backend,
        )

    def compute(self) -> List[TupleSet]:
        """Compute and cache the full approximate result."""
        if self._cached is None:
            self.statistics = FDStatistics()
            self._cached = approx_full_disjunction(
                self._database,
                self._join_function,
                self._threshold,
                use_index=self._use_index,
                statistics=self.statistics,
                backend=self._backend,
            )
        return list(self._cached)

    def scores(self) -> Dict[TupleSet, float]:
        """The approximate-join value ``A(T)`` of every result."""
        return {tuple_set: self._join_function(tuple_set) for tuple_set in self.compute()}

    def padded_rows(self) -> List[Dict[str, object]]:
        """Render results as null-padded rows over the union schema."""
        schema = combined_schema(self._database.relations)
        return [pad_tuple_set(tuple_set, schema) for tuple_set in self.compute()]

    def pretty(self) -> str:
        """Render the approximate result with per-row ``A`` values."""
        schema = combined_schema(self._database.relations)
        header = ["tuple set", "A"] + list(schema.attributes)
        rows = []
        for tuple_set in sorted(self.compute(), key=lambda ts: ts.sort_key()):
            padded = pad_tuple_set(tuple_set, schema)
            labels = "{" + ", ".join(sorted(t.label for t in tuple_set)) + "}"
            rows.append(
                [labels, f"{self._join_function(tuple_set):.2f}"]
                + ["⊥" if is_null(padded[a]) else str(padded[a]) for a in schema.attributes]
            )
        widths = [len(h) for h in header]
        for row in rows:
            for idx, cell in enumerate(row):
                widths[idx] = max(widths[idx], len(cell))
        lines = [
            "  ".join(h.ljust(widths[idx]) for idx, h in enumerate(header)),
            "  ".join("-" * widths[idx] for idx in range(len(header))),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(row)))
        return "\n".join(lines)
