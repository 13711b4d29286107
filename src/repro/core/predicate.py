"""The join predicate: everything exact and approximate full disjunctions differ on.

The paper presents one algorithmic framework: ``ApproxIncrementalFD``
(Figs. 5–6) is ``IncrementalFD`` with three starred changes, and the ranked
approximate variant is ``PriorityIncrementalFD`` over the same changes (end
of Section 6).  The drivers — :func:`repro.core.incremental.incremental_fd`
and :func:`~repro.core.incremental.get_next_result`, the priority driver
:class:`repro.core.priority.PriorityState`, and every backend's step and pass
functions in :mod:`repro.exec` — are written once, against a
:class:`JoinPredicate` that owns exactly the five points of difference:

* **which seeds qualify** — Line 3 (starred) admits ``{t}`` only when
  ``A({t}) ≥ τ`` (:meth:`JoinPredicate.admits`);
* **one-tuple growth** — the maximal extension of Lines 2–6
  (:meth:`~JoinPredicate.extend`) and the size-≤c enumeration seeding the
  priority queues, Lines 3–4 of Fig. 3 (:meth:`~JoinPredicate.subsets`),
  both built on :meth:`~JoinPredicate.grow`;
* **the Line-8 candidates** — footnote 3's unique maximal JCC subset, or
  every maximal qualifying subset (Example 6.3)
  (:meth:`~JoinPredicate.candidates`);
* **the Line-14 merge** — ``JCC(S ∪ T')``, or ``A(S ∪ T') ≥ τ``; the same
  test merges queue members in Lines 5–8 of Fig. 3
  (:meth:`~JoinPredicate.merge`, :meth:`~JoinPredicate.first_merge`);
* **whether anchor-bucket ranges are sound**
  (:attr:`~JoinPredicate.bucket_sound`).

Two predicates ship: :data:`EXACT`, join consistency and connectivity over
the catalog's interned bitsets, and :class:`ApproximatePredicate` for an
approximate join function ``A`` and a threshold ``τ``.

The exact predicate's extension is the paper's loop,
:func:`repro.core.incremental.maximally_extend`, and its merge probe asks
``union_is_jcc`` then ``union`` of each waiting set in list order, so the
exact step calls the same ``TupleSet`` methods, in the same order, as the
paper's loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple as TupleType

from repro.relational.tuples import Tuple
from repro.core.tupleset import TupleSet


class JoinPredicate:
    """The test that decides which tuple sets belong together.

    Subclasses implement :meth:`admits`, :meth:`grow`, :meth:`candidates`
    and :meth:`merge`; :meth:`extend`, :meth:`first_merge` and
    :meth:`subsets` have generic implementations on top of those.
    """

    #: Whether one pass may be split into anchor-bucket ranges.  Restricting
    #: Line 9 to a subset of ``R_i``'s tuples is the paper's algorithm over a
    #: database in which ``R_i`` is split into sub-relations — sound exactly
    #: when every tuple set the run builds holds at most one ``R_i`` tuple,
    #: so that every Line-14 merge stays inside one anchor bucket.  The
    #: sharded backend (:mod:`repro.exec.sharded`) fans a pass out by bucket
    #: ranges only when this holds, and by whole passes otherwise.
    bucket_sound = True

    def admits(self, tuple_set: TupleSet) -> bool:
        """Whether ``tuple_set`` qualifies — asked of the seeds (Line 3)."""
        raise NotImplementedError

    def grow(self, tuple_set: TupleSet, t: Tuple) -> Optional[TupleSet]:
        """``tuple_set ∪ {t}`` when it still qualifies, ``None`` otherwise."""
        raise NotImplementedError

    def extend(self, tuple_set: TupleSet, scanner, statistics) -> TupleSet:
        """Lines 2–6: add qualifying tuples one at a time until a fixpoint.

        For an acceptable ``A`` every maximal qualifying superset is reachable
        by such single-tuple steps, so the fixpoint is maximal (the
        discussion after Definition 6.4).  Each pass over the database bumps
        ``statistics.extension_passes``.
        """
        grow = self.grow
        current = tuple_set
        changed = True
        while changed:
            changed = False
            if statistics is not None:
                statistics.extension_passes += 1
            for t in scanner.scan():
                if t in current:
                    continue
                grown = grow(current, t)
                if grown is not None:
                    current = grown
                    changed = True
        return current

    def candidates(self, result: TupleSet, scanner) -> Iterator[TupleSet]:
        """Lines 7–8: the candidates derived from each tuple outside ``result``, in scan order."""
        raise NotImplementedError

    def merge(self, first: TupleSet, second: TupleSet) -> Optional[TupleSet]:
        """The Line-14 test: ``first ∪ second`` when the pair may merge, else ``None``."""
        raise NotImplementedError

    def first_merge(
        self, waiting_list: Sequence[TupleSet], candidate: TupleSet
    ) -> Optional[TupleType[TupleSet, TupleSet]]:
        """Lines 12–15: the first waiting set that merges with ``candidate``.

        Returns ``(waiting set, union)`` for the first partner in list order,
        ``None`` when there is none.
        """
        merge = self.merge
        for waiting in waiting_list:
            union = merge(waiting, candidate)
            if union is not None:
                return waiting, union
        return None

    def subsets(
        self, database, seeds: Iterable[TupleSet], max_size: int
    ) -> Iterator[TupleSet]:
        """Every qualifying set of size ≤ ``max_size`` grown from an admitted seed.

        The size-≤c enumeration of Fig. 3 (Lines 3–4), breadth first: the
        admitted seeds in order, then each round's sets grown by one tuple in
        database scan order, each set once.  Every qualifying connected set
        has a build order from its seed whose prefixes are all connected (a
        spanning-tree traversal), and qualification is inherited by subsets
        (join consistency, or acceptability of ``A``), so growing tuple by
        tuple reaches all of them.  Cost ``O(s^c)`` for ``c = max_size``.
        """
        admits, grow = self.admits, self.grow
        seen = set()
        frontier: List[TupleSet] = []
        for seed in seeds:
            if admits(seed):
                seen.add(seed)
                frontier.append(seed)
                yield seed
        if max_size <= 1:
            # The common case (f_max is 1-determined): no growth rounds, and
            # no O(s) copy of the database's tuples.
            return
        all_tuples = list(database.tuples())
        for _ in range(max_size - 1):
            next_frontier: List[TupleSet] = []
            for current in frontier:
                for t in all_tuples:
                    if t in current:
                        continue
                    grown = grow(current, t)
                    if grown is None or grown in seen:
                        continue
                    seen.add(grown)
                    next_frontier.append(grown)
                    yield grown
            frontier = next_frontier


class ExactPredicate(JoinPredicate):
    """Join consistency and connectivity (JCC), over the interned bitsets.

    Bucket-sound: two distinct tuples of one relation are never join
    consistent, so a JCC set holds at most one ``R_i`` tuple and every
    Line-14 merge is anchor-local (see
    :func:`repro.core.incremental.get_next_result`).
    """

    bucket_sound = True

    def admits(self, tuple_set: TupleSet) -> bool:
        # Seeds are single tuples, and every single tuple is JCC.
        return True

    def grow(self, tuple_set: TupleSet, t: Tuple) -> Optional[TupleSet]:
        if tuple_set.can_absorb(t):
            return tuple_set.with_tuple(t)
        return None

    def extend(self, tuple_set: TupleSet, scanner, statistics) -> TupleSet:
        # Looked up at call time: the incremental module imports this one,
        # and a wrapper installed on its name must see every extension.
        from repro.core import incremental

        return incremental.maximally_extend(tuple_set, scanner, statistics)

    def candidates(self, result: TupleSet, scanner) -> Iterator[TupleSet]:
        # Footnote 3: one candidate per outside tuple.
        line8 = result.maximal_jcc_subset_with
        for outside in scanner.scan():
            if outside not in result:
                yield line8(outside)

    def merge(self, first: TupleSet, second: TupleSet) -> Optional[TupleSet]:
        if first.union_is_jcc(second):
            return first.union(second)
        return None


#: The exact predicate; every driver's default.
EXACT = ExactPredicate()


class ApproximatePredicate(JoinPredicate):
    """``A(T) ≥ τ`` for an acceptable, efficiently computable ``A`` (Section 6).

    The three starred changes of Figs. 5–6: only qualifying singletons seed
    ``Incomplete``, every ``JCC(·)`` test becomes ``A(·) ≥ τ``, and Line 8
    may yield several maximal qualifying subsets per outside tuple
    (``A.candidate_extensions``).

    Not bucket-sound, so approximate passes stay whole under the sharded
    backend.  The starred Line-14 test asks only ``A(S ∪ T') ≥ τ``, and a
    similarity function may well rate two tuples of the anchor relation as
    the same entity (a near-duplicate listed twice).  Their buckets' sets
    then merge into one set holding two ``R_i`` tuples, so a pass split into
    bucket ranges would lose or repeat the answers that span two ranges.
    """

    bucket_sound = False

    def __init__(self, join_function, threshold: float):
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.join_function = join_function
        self.threshold = threshold

    def admits(self, tuple_set: TupleSet) -> bool:
        return tuple_set.is_connected and self.join_function(tuple_set) >= self.threshold

    def grow(self, tuple_set: TupleSet, t: Tuple) -> Optional[TupleSet]:
        if t.relation_name in tuple_set.relations:
            return None
        grown = tuple_set.with_tuple(t)
        return grown if self.admits(grown) else None

    def candidates(self, result: TupleSet, scanner) -> Iterator[TupleSet]:
        extensions = self.join_function.candidate_extensions
        threshold = self.threshold
        for outside in scanner.scan():
            if outside not in result:
                yield from extensions(result, outside, threshold)

    def merge(self, first: TupleSet, second: TupleSet) -> Optional[TupleSet]:
        union = first.union(second)
        return union if self.admits(union) else None
