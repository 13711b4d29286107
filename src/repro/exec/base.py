"""The execution-backend interface: *what* the engine computes vs. *how*.

The paper's algorithms are defined by two loops: the per-pass
``GetNextResult`` step (Fig. 2 / Fig. 6) and the full-disjunction driver that
runs one ``IncrementalFD`` pass per relation (Corollary 4.9 / 6.7).
Everything else — candidate generation, subsumption, merging — is a property
of the *algorithm*, and the exact/approximate split inside it is a join
predicate (:mod:`repro.core.predicate`) that every operation here takes as an
argument; whether the passes run one after another or fan out across
processes is a property of the *schedule*.

:class:`ExecutionBackend` is that seam.  The two drivers — the incremental
one (:mod:`repro.core.incremental`, :mod:`repro.core.full_disjunction`) and
the priority one (:mod:`repro.core.priority`) — dispatch through a backend
instead of hard-coding their loops, so the same algorithm runs under either
backend of :data:`repro.exec.BACKENDS`:

* :class:`~repro.exec.serial.SerialBackend` — the paper's reference
  execution, extracted from the original driver loops;
* :class:`~repro.exec.sharded.ShardedBackend` — the per-relation passes of
  the ``singletons`` strategy run on a ``ProcessPoolExecutor``, split into
  anchor-bucket ranges (or kept whole for predicates that are not
  bucket-sound), with deterministic result and statistics merging.

Both run the one ``GetNextResult`` step,
:func:`repro.core.incremental.get_next_result`, and produce the same result
sets; the sharded backend emits them bucket-major, or in the serial order
when its passes stay whole.  The cross-backend equivalence tests in
``tests/exec/test_backend_equivalence.py`` enforce this.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.core.predicate import EXACT, JoinPredicate
from repro.core.tupleset import TupleSet


class ExecutionBackend:
    """How the full-disjunction drivers schedule their work.

    Subclasses implement two operations, each under a join ``predicate``
    (:data:`~repro.core.predicate.EXACT` by default).  ``next_result`` is a
    drop-in replacement for :func:`repro.core.incremental.get_next_result`;
    the drivers call whichever the active backend provides.
    ``run_singleton_passes`` owns the scheduling of the independent
    per-relation passes of the ``singletons`` initialization strategy — the
    one place where whole passes, not single steps, can be reordered or
    parallelised.
    """

    #: Backend name as accepted by :func:`repro.exec.resolve_backend`.
    name = "abstract"

    def next_result(
        self,
        database: Database,
        anchor: str,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
        anchor_tuples=None,
        predicate: JoinPredicate = EXACT,
    ) -> TupleSet:
        """One ``GetNextResult`` step (Fig. 2, or Fig. 6) under this backend's schedule.

        ``anchor_tuples``, when given, restricts Line 9 to an anchor bucket
        range (see :func:`repro.core.incremental.get_next_result`).
        """
        raise NotImplementedError

    def run_singleton_passes(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
        statistics=None,
        predicate: JoinPredicate = EXACT,
    ) -> Iterator[TupleSet]:
        """Compute ``FD(R)`` (or ``AFD(R, A, τ)``) with singleton initialization.

        Yields every member of the full disjunction exactly once (duplicate
        suppression across passes included).  Implementations must merge
        per-pass statistics into ``statistics`` deterministically, in
        database relation order, on every exit — an abandoned generator
        (first-k retrieval) included.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
