"""The ``Incomplete`` pools and the reference ``Complete`` store.

The paper stores both containers as linked lists and, in Section 7,
recommends replacing them with hash tables keyed by the member tuple of the
anchor relation ``R_i``.  Three containers live here:

* :class:`ListIncompletePool` — the ``Incomplete`` list of ``IncrementalFD``,
  with the positional semantics of the paper's linked list, kept as a list
  of slot objects that serve as O(1) position handles for the Line 15
  replacement (vacated, not deleted, when the union is already queued).
* :class:`PriorityIncompletePool` — the ``Incomplete_i`` priority queues of
  ``PriorityIncrementalFD``; extraction by highest rank from a lazily
  pruned heap.
* :class:`CompleteStore` — already-printed results; answers "is ``T'``
  contained in some stored set?" with a plain list and a single-level hash
  index.  The engine runs on the dual-indexed store of
  :mod:`repro.core.store`; this one is kept as the executable reference
  the randomized equivalence tests
  (``tests/core/test_tupleset_equivalence.py``) run beside it.

Both pools are the engine's own (:mod:`repro.core.store` re-exports them).
With ``use_index`` on, each keeps a Section 7 hash index from anchor tuple
to an insertion-ordered dict of the queued sets holding it, and the Line 14
merge probe returns one bucket.  Cost model: ``replace``, membership and
the index upkeep are O(1); the list pool's ``add`` at the insertion cursor
and ``pop`` at the head are C-level list shifts (each vacated slot ``pop``
drops is paid once); the merge probe copies its bucket; the heap pays
O(log n) per push and pop.

All containers count their work in a :class:`PoolStatistics` (shared with
:mod:`repro.core.store`), which the benchmarks use as a
machine-independent work measure.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.relational.tuples import Tuple
from repro.core.tupleset import TupleSet

__all__ = [
    "PoolStatistics",
    "CompleteStore",
    "ListIncompletePool",
    "PriorityIncompletePool",
]


class PoolStatistics:
    """Work counters shared by all containers (used by the benchmark harness).

    ``sets_scanned`` is the headline measure: the number of stored tuple sets
    actually subjected to a subsumption or merge test.  ``bucket_probes``
    counts hash-index buckets / relation-set groups inspected on the way, and
    ``full_scans`` counts probes that traversed the whole container (no index
    or no anchor available).
    """

    __slots__ = (
        "sets_scanned",
        "additions",
        "removals",
        "replacements",
        "peak_size",
        "bucket_probes",
        "full_scans",
    )

    def __init__(self) -> None:
        self.sets_scanned = 0
        self.additions = 0
        self.removals = 0
        self.replacements = 0
        self.peak_size = 0
        self.bucket_probes = 0
        self.full_scans = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sets_scanned": self.sets_scanned,
            "additions": self.additions,
            "removals": self.removals,
            "replacements": self.replacements,
            "peak_size": self.peak_size,
            "bucket_probes": self.bucket_probes,
            "full_scans": self.full_scans,
        }

    def __repr__(self) -> str:
        rendered = ", ".join(f"{key}={value}" for key, value in self.as_dict().items())
        return f"PoolStatistics({rendered})"


class CompleteStore:
    """The ``Complete`` list: results already printed.

    Parameters
    ----------
    anchor_relation:
        Name of the relation ``R_i`` whose member tuple keys the hash index.
        Only used when ``use_index`` is true.  In the priority algorithm the
        store is shared by all indexes; the superset probe then passes the
        anchor tuple explicitly.
    use_index:
        When true, stored sets are additionally hashed by *every* member
        tuple, and superset probes restricted to the bucket of the probe's
        anchor tuple (Section 7 optimization).
    """

    def __init__(self, anchor_relation: Optional[str] = None, use_index: bool = False):
        self._anchor_relation = anchor_relation
        self._use_index = use_index
        self._sets: List[TupleSet] = []
        self._members = set()
        self._buckets: Dict[Tuple, List[TupleSet]] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(self._sets)

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def add(self, tuple_set: TupleSet) -> None:
        """Store a printed result."""
        self._sets.append(tuple_set)
        self._members.add(tuple_set)
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._sets))
        if self._use_index:
            for t in tuple_set:
                self._buckets.setdefault(t, []).append(tuple_set)

    def _candidates(self, probe: TupleSet, anchor: Optional[Tuple]) -> Iterable[TupleSet]:
        if self._use_index:
            key = anchor
            if key is None and self._anchor_relation is not None:
                key = probe.tuple_from(self._anchor_relation)
            if key is not None:
                return self._buckets.get(key, ())
            # Fall back to a full scan when no anchor tuple is available.
        return self._sets

    def contains_superset(self, probe: TupleSet, anchor: Optional[Tuple] = None) -> bool:
        """Line 11 of ``GetNextResult``: is ``probe`` contained in a stored set?"""
        for stored in self._candidates(probe, anchor):
            self.statistics.sets_scanned += 1
            if probe.issubset(stored):
                return True
        return False

    def as_list(self) -> List[TupleSet]:
        """The stored sets in insertion (printing) order."""
        return list(self._sets)


class _Slot:
    """A position handle in the ``Incomplete`` list: one mutable cell.

    ``item`` is the queued tuple set, or ``None`` once the slot is vacated.
    """

    __slots__ = ("item",)

    def __init__(self, item: TupleSet) -> None:
        self.item = item


class ListIncompletePool:
    """The ``Incomplete`` list of ``IncrementalFD``, with positional semantics.

    The list behaves like the paper's linked list: ``pop`` removes the head,
    ``replace`` keeps the replaced set's position, and newly inserted sets go
    where the ``extraction`` policy dictates.

    Every queued set owns a :class:`_Slot` in ``_items``, and ``_members``
    maps the set to its slot, so the Line 15 replacement rewrites the slot
    in O(1) instead of searching the list.  When the union is already
    queued elsewhere, the replaced set's slot is *vacated* (``item =
    None``) rather than deleted: a vacated slot keeps its physical position,
    so the insertion cursor stays valid, and it is skipped by ``pop``,
    iteration and the full-scan probe, dropped when it reaches the head or
    tail, and compacted away by :meth:`discard_containing`.  The index
    buckets are insertion-ordered dicts, so adding or dropping a member
    there is O(1) as well.  ``len`` counts live sets only.

    Parameters
    ----------
    anchor_relation:
        Name of ``R_i``; every member set contains exactly one tuple of this
        relation, which keys the optional hash index.
    use_index:
        Enable the Section 7 hash index for the merge probe of Line 14.
    extraction:
        ``"paper"`` (default) reproduces the traversal of the paper's worked
        example (Table 3): the head is removed and the candidates generated
        while processing it are inserted at the head, in generation order, so
        they are processed before older entries.  ``"fifo"`` appends new
        candidates at the tail; ``"lifo"`` removes from the tail.  The choice
        does not affect which tuple sets are produced, only their order.
    """

    EXTRACTION_ORDERS = ("paper", "fifo", "lifo")

    def __init__(
        self,
        anchor_relation: str,
        use_index: bool = False,
        extraction: str = "paper",
    ):
        if extraction not in self.EXTRACTION_ORDERS:
            raise ValueError(
                f"unknown extraction order {extraction!r}; expected one of {self.EXTRACTION_ORDERS}"
            )
        self._anchor_relation = anchor_relation
        self._use_index = use_index
        self._extraction = extraction
        self._items: List[_Slot] = []
        self._members: Dict[TupleSet, _Slot] = {}
        # Physical index in ``_items`` where "paper" extraction inserts next.
        self._insert_cursor = 0
        self._buckets: Dict[Tuple, Dict[TupleSet, None]] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(self.as_list())

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def _anchor_of(self, tuple_set: TupleSet) -> Optional[Tuple]:
        return tuple_set.tuple_from(self._anchor_relation)

    def _index_add(self, tuple_set: TupleSet) -> None:
        if self._use_index:
            anchor = self._anchor_of(tuple_set)
            if anchor is not None:
                self._buckets.setdefault(anchor, {})[tuple_set] = None

    def _index_discard(self, tuple_set: TupleSet) -> None:
        if self._use_index:
            bucket = self._buckets.get(self._anchor_of(tuple_set))
            if bucket is not None:
                bucket.pop(tuple_set, None)

    def add(self, tuple_set: TupleSet) -> None:
        """Insert a tuple set (Line 18 of ``GetNextResult`` / initialization)."""
        if tuple_set in self._members:
            return
        slot = _Slot(tuple_set)
        if self._extraction == "paper":
            self._items.insert(self._insert_cursor, slot)
            self._insert_cursor += 1
        else:
            self._items.append(slot)
        self._members[tuple_set] = slot
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._members))
        self._index_add(tuple_set)

    def pop(self) -> TupleSet:
        """Remove and return the next tuple set to extend (Line 1)."""
        if not self._members:
            raise IndexError("pop from an empty Incomplete pool")
        end = -1 if self._extraction == "lifo" else 0
        tuple_set = self._items.pop(end).item
        while tuple_set is None:  # drop vacated slots on the way
            tuple_set = self._items.pop(end).item
        del self._members[tuple_set]
        self._index_discard(tuple_set)
        self._insert_cursor = 0
        self.statistics.removals += 1
        return tuple_set

    def candidates(self, probe: TupleSet) -> List[TupleSet]:
        """Member sets that might merge with ``probe`` (Line 14 probe).

        With the index enabled only the bucket of ``probe``'s anchor tuple is
        returned; a set with a different ``R_i`` tuple can never merge with
        ``probe`` because their union would hold two tuples of ``R_i``.
        """
        if self._use_index:
            anchor = self._anchor_of(probe)
            if anchor is not None:
                self.statistics.bucket_probes += 1
                bucket = list(self._buckets.get(anchor, ()))
                self.statistics.sets_scanned += len(bucket)
                return bucket
        self.statistics.full_scans += 1
        live = self.as_list()
        self.statistics.sets_scanned += len(live)
        return live

    def replace(self, old: TupleSet, new: TupleSet) -> None:
        """Replace ``old`` by ``new`` (Line 15), in place, through its slot."""
        slot = self._members.pop(old, None)
        if slot is None:
            raise KeyError(f"{old!r} is not in the Incomplete pool")
        self._index_discard(old)
        self.statistics.replacements += 1
        if new in self._members:
            # The union is already queued elsewhere; just drop ``old``.
            slot.item = None
            return
        slot.item = new
        self._members[new] = slot
        self._index_add(new)

    def discard_containing(self, dead_tuples) -> int:
        """Evict every queued set holding a dead tuple (streaming deletion).

        A queued set containing a deleted tuple can never extend into a
        result of the post-deletion database; it is dropped from the list,
        the membership map and the index in one sweep, without touching the
        surviving members.  A sweep that evicts also compacts vacated slots
        away.  Returns the number of sets evicted.
        """
        dead = set(dead_tuples)
        if not dead or not self._members:
            return 0
        from repro.core.kernels import active_kernel

        live = [slot for slot in self._items if slot.item is not None]
        flags = active_kernel().batch_contains_dead([slot.item for slot in live], dead)
        kept: List[_Slot] = []
        for slot, hit in zip(live, flags):
            if hit:
                del self._members[slot.item]
                self._index_discard(slot.item)
                self.statistics.removals += 1
            else:
                kept.append(slot)
        evicted = len(live) - len(kept)
        if evicted:
            self._items = kept
            self._insert_cursor = 0
        return evicted

    def as_list(self) -> List[TupleSet]:
        """The live member sets in list order (used by the trace harness)."""
        return [slot.item for slot in self._items if slot.item is not None]


class PriorityIncompletePool:
    """The ``Incomplete_i`` priority queue of ``PriorityIncrementalFD``.

    Extraction returns the member set with the highest rank according to the
    supplied ranking function.  Ties are broken by insertion order, which
    keeps runs deterministic.  Removed and replaced sets leave their heap
    entries behind, pruned lazily when ``peek`` or ``pop`` finds them at the
    top, so a set queued again before that keeps its earlier entry's place
    among equal ranks.  The index buckets are insertion-ordered dicts, so a
    removal there is one ``pop``.
    """

    def __init__(
        self,
        anchor_relation: str,
        ranking: Callable[[TupleSet], float],
        use_index: bool = False,
    ):
        self._anchor_relation = anchor_relation
        self._ranking = ranking
        self._use_index = use_index
        self._heap: List = []
        self._members = set()
        self._counter = itertools.count()
        self._buckets: Dict[Tuple, Dict[TupleSet, None]] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(list(self._members))

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def _anchor_of(self, tuple_set: TupleSet) -> Optional[Tuple]:
        return tuple_set.tuple_from(self._anchor_relation)

    def _push(self, tuple_set: TupleSet) -> None:
        score = self._ranking(tuple_set)
        heapq.heappush(self._heap, (-score, next(self._counter), tuple_set))
        self._members.add(tuple_set)
        if self._use_index:
            anchor = self._anchor_of(tuple_set)
            if anchor is not None:
                self._buckets.setdefault(anchor, {})[tuple_set] = None

    def add(self, tuple_set: TupleSet) -> None:
        """Insert a tuple set, keyed by its rank."""
        if tuple_set in self._members:
            return
        self._push(tuple_set)
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._members))

    def _prune(self) -> None:
        while self._heap and self._heap[0][2] not in self._members:
            heapq.heappop(self._heap)

    def peek_score(self) -> Optional[float]:
        """The rank of the highest-ranking member set, or ``None`` when empty."""
        self._prune()
        if not self._heap:
            return None
        return -self._heap[0][0]

    def peek(self) -> Optional[TupleSet]:
        """The highest-ranking member set, or ``None`` when empty."""
        self._prune()
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop(self) -> TupleSet:
        """Remove and return the highest-ranking member set."""
        self._prune()
        if not self._heap:
            raise IndexError("pop from an empty priority Incomplete pool")
        _, _, tuple_set = heapq.heappop(self._heap)
        self._discard(tuple_set)
        self.statistics.removals += 1
        return tuple_set

    def _discard(self, tuple_set: TupleSet) -> None:
        self._members.discard(tuple_set)
        if self._use_index:
            bucket = self._buckets.get(self._anchor_of(tuple_set))
            if bucket is not None:
                bucket.pop(tuple_set, None)

    def candidates(self, probe: TupleSet) -> List[TupleSet]:
        """Member sets that might merge with ``probe`` (see :class:`ListIncompletePool`)."""
        if self._use_index:
            anchor = self._anchor_of(probe)
            if anchor is not None:
                self.statistics.bucket_probes += 1
                bucket = list(self._buckets.get(anchor, ()))
                self.statistics.sets_scanned += len(bucket)
                return bucket
        self.statistics.full_scans += 1
        live = list(self._members)
        self.statistics.sets_scanned += len(live)
        return live

    def replace(self, old: TupleSet, new: TupleSet) -> None:
        """Replace ``old`` by ``new``; the new set is re-ranked."""
        if old not in self._members:
            raise KeyError(f"{old!r} is not in the Incomplete pool")
        self._discard(old)
        self.statistics.replacements += 1
        if new not in self._members:
            self._push(new)

    def discard_containing(self, dead_tuples) -> int:
        """Evict every queued set holding a dead tuple (streaming deletion).

        See :meth:`ListIncompletePool.discard_containing`; the heap entries
        of evicted sets are pruned lazily, as for :meth:`pop`.
        """
        dead = set(dead_tuples)
        if not dead or not self._members:
            return 0
        from repro.core.kernels import active_kernel

        members = list(self._members)
        flags = active_kernel().batch_contains_dead(members, dead)
        victims = [tuple_set for tuple_set, hit in zip(members, flags) if hit]
        for tuple_set in victims:
            self._discard(tuple_set)
            self.statistics.removals += 1
        return len(victims)

    def as_list(self) -> List[TupleSet]:
        """The live member sets in descending rank order."""
        ordered = sorted(
            self._members, key=lambda tuple_set: (-self._ranking(tuple_set), tuple_set.sort_key())
        )
        return ordered
