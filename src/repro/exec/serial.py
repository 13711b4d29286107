"""The serial backend: the paper's reference execution, extracted.

This backend *is* the pre-existing behaviour of the drivers — the per-step
function is exactly :func:`repro.core.incremental.get_next_result`, and
:meth:`SerialBackend.run_singleton_passes` is the independent-passes loop
that used to live inline in :mod:`repro.core.full_disjunction`.  Both take
the join predicate, so the same loop computes the exact and the approximate
full disjunction.  It exists as a class so the sharded backend can replace
the pass schedule while inheriting the step.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.core.incremental import FDStatistics, get_next_result, incremental_fd
from repro.core.predicate import EXACT, JoinPredicate
from repro.core.scanner import make_scanner
from repro.core.tupleset import TupleSet
from repro.exec.base import ExecutionBackend
from repro.obs.tracing import trace_span


class SerialBackend(ExecutionBackend):
    """One step at a time, one pass after another — the reference schedule."""

    name = "serial"

    def next_result(
        self,
        database,
        anchor,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
        anchor_tuples=None,
        predicate: JoinPredicate = EXACT,
    ) -> TupleSet:
        return get_next_result(
            database,
            anchor,
            incomplete,
            complete,
            scanner,
            statistics,
            anchor_tuples=anchor_tuples,
            predicate=predicate,
        )

    def run_singleton_passes(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
        statistics=None,
        predicate: JoinPredicate = EXACT,
    ) -> Iterator[TupleSet]:
        """The paper's basic driver: a fresh ``IncrementalFD`` per relation."""
        for index, relation in enumerate(database.relations):
            earlier = {r.name for r in database.relations[:index]}
            scanner = make_scanner(database, block_size)
            pass_statistics = FDStatistics() if statistics is not None else None
            # The span covers the pass's wall clock as the consumer sees it
            # (pauses between pulls included) — on a trace, that is where
            # the serving time actually went.
            with trace_span("engine.pass", "engine", anchor=relation.name):
                results = incremental_fd(
                    database,
                    relation.name,
                    use_index=use_index,
                    scanner=scanner,
                    statistics=pass_statistics,
                    backend=self,
                    predicate=predicate,
                )
                try:
                    for result in results:
                        # Duplicate suppression: a result containing a tuple
                        # of an earlier relation was already produced by an
                        # earlier pass, and is not delivered again.
                        if any(result.contains_tuple_from(name) for name in earlier):
                            if pass_statistics is not None:
                                pass_statistics.results_emitted -= 1
                            continue
                        yield result
                finally:
                    # Merge on every exit, an abandoned first-k pass included.
                    # Closing the pass first records its store counters.
                    results.close()
                    if pass_statistics is not None:
                        pass_statistics.block_reads = getattr(scanner, "block_reads", 0)
                        statistics.merge(pass_statistics)
