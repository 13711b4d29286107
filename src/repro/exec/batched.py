"""The batched backend: bucket-amortized ``GetNextResult``.

The Line 7–18 loop of ``GetNextResult`` derives one candidate tuple set per
outside tuple and probes the ``Complete`` store for each (the Line 10–11
subsumption test).  With the Section 7 index, candidates sharing an anchor
tuple probe the *same* bucket — so the serial loop fetches and walks the same
bucket groups over and over.

The batched step exploits one structural fact: **``Complete`` never changes
during a single ``GetNextResult`` call** (the produced result is appended by
the driver only after the call returns).  Candidate generation (Footnote 3)
depends only on the popped-and-extended result, so the step can be split into
three exactly-equivalent phases:

1. generate every candidate in scan order and group them by anchor tuple;
2. answer all subsumption probes bucket by bucket, fetching each ``Complete``
   bucket once per *batch* instead of once per candidate
   (:meth:`repro.core.store.CompleteStore.contains_superset_batch`);
3. replay the surviving candidates in the original scan order against the
   live ``Incomplete`` pool (merges and inserts must observe each other, so
   phase 3 is deliberately sequential).

Because phase 3 runs in the serial order and phases 1–2 answer exactly the
questions the serial loop would have asked, the batched step produces the
identical result, the identical pool evolution and therefore the identical
output *sequence* — for the FIFO drivers and for the ranked/priority drivers
alike.  Only the ``bucket_probes`` work counter drops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.tuples import Tuple
from repro.core.kernels import active_kernel
from repro.core.predicate import EXACT, JoinPredicate
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet
from repro.exec.serial import SerialBackend


def _batch_subsumption(complete, buckets: Dict[Tuple, List[TupleSet]]):
    """Answer the Line 10-11 probes for whole anchor buckets at once."""
    probe_batch = getattr(complete, "contains_superset_batch", None)
    answers: Dict[Tuple, List[bool]] = {}
    for anchor_tuple, group in buckets.items():
        if probe_batch is not None:
            answers[anchor_tuple] = probe_batch(group, anchor=anchor_tuple)
        else:
            # A store without the batch API (e.g. the reference pools) still
            # works — probe per candidate, exactly like the serial step.
            answers[anchor_tuple] = [
                complete.contains_superset(candidate, anchor=anchor_tuple)
                for candidate in group
            ]
    return answers


def get_next_result_batched(
    database: Database,
    anchor: str,
    incomplete,
    complete,
    scanner: Optional[TupleScanner] = None,
    statistics=None,
    anchor_tuples=None,
    predicate: JoinPredicate = EXACT,
) -> TupleSet:
    """``GetNextResult`` (Fig. 2, or Fig. 6) with bucket-batched ``Complete`` probes.

    Observationally identical to
    :func:`repro.core.incremental.get_next_result` — same result, same pool
    mutations in the same order, same ``sets_scanned`` — with the subsumption
    probes of Lines 10–11 amortized to one store probe per anchor bucket.
    The predicate's extension and merge probe run on the active kernel (the
    packed kernel evaluates each exact scan pass as one batched absorb test,
    and finds the first Line-14 partner in one call instead of one
    ``union_is_jcc`` per waiting set).  ``anchor_tuples`` applies the
    bucket-range restriction of :func:`repro.core.incremental.get_next_result`
    to the Line 9 test.
    """
    if scanner is None:
        scanner = TupleScanner(database)
    kernel = active_kernel()
    first_merge = predicate.first_merge

    # Line 1: remove a tuple set from Incomplete; Lines 2-6: extend it.
    result = incomplete.pop()
    result = predicate.extend(result, scanner, statistics, kernel)

    # Phase 1 (Lines 7-9): every candidate in scan order, grouped by anchor
    # tuple.  A starred Line 8 may emit several per outside tuple.
    entries: List[TupleType[TupleSet, Tuple]] = []
    buckets: Dict[Tuple, List[TupleSet]] = {}
    for candidate in predicate.candidates(result, scanner):
        if statistics is not None:
            statistics.candidates_generated += 1
        anchor_tuple = candidate.tuple_from(anchor)
        if anchor_tuple is None or (
            anchor_tuples is not None and anchor_tuple not in anchor_tuples
        ):
            if statistics is not None:
                statistics.candidates_without_anchor += 1
            continue
        entries.append((candidate, anchor_tuple))
        buckets.setdefault(anchor_tuple, []).append(candidate)

    # Phase 2 (Lines 10-11): one Complete probe per bucket, not per candidate.
    subsumed = _batch_subsumption(complete, buckets)

    # Phase 3 (Lines 12-18): replay survivors in scan order against the live
    # Incomplete pool.
    cursors: Dict[Tuple, int] = dict.fromkeys(buckets, 0)
    for candidate, anchor_tuple in entries:
        position = cursors[anchor_tuple]
        cursors[anchor_tuple] = position + 1
        if subsumed[anchor_tuple][position]:
            if statistics is not None:
                statistics.candidates_subsumed += 1
            continue
        partner = first_merge(incomplete.candidates(candidate), candidate, kernel)
        if partner is not None:
            incomplete.replace(*partner)
            if statistics is not None:
                statistics.candidates_merged += 1
            continue
        incomplete.add(candidate)
        if statistics is not None:
            statistics.candidates_inserted += 1

    # Line 19.
    return result


class BatchedBackend(SerialBackend):
    """Anchor-bucket batching of the ``GetNextResult`` probe loop.

    Pass scheduling is inherited from :class:`SerialBackend`; only the
    per-step function changes.
    """

    name = "batched"

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
        return get_next_result_batched(
            database,
            anchor,
            incomplete,
            complete,
            scanner,
            statistics,
            anchor_tuples=anchor_tuples,
            predicate=predicate,
        )
