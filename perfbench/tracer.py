"""Layer tracing from outside the program: wrappers patched at module boundaries.

A wrapper is installed at the name the *caller* looks up: ``repro.exec.serial``
imports ``get_next_result`` and ``incremental_fd`` by name, so those are
patched in that module; ``maximally_extend`` is resolved through
``repro.core.incremental``'s globals; methods are patched on their classes
(subclasses inherit the wrapper unless they override the method).

Each wrapped call pushes a frame on one stack.  When it returns, its self time
(its duration minus the time of the wrapped calls inside it) is charged to its
name.  Coarse calls also record a span ``(name, start, end, parent, request)``
kept in memory; the hottest small calls (candidate generation, merge tests,
store probes, pool operations, row reads) are only timed and counted, because
a span each would cost more than the call.  A generator is timed per resume,
so the pass loop's time is the time spent inside it, not the time its
consumer holds it open.  Async request handlers are recorded as request
spans of their own: other requests interleave with them at every ``await``,
so they carry the request id instead of nesting.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from collections import defaultdict
from typing import Dict, List

_REQUEST = contextvars.ContextVar("perfbench_request", default=None)
_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        #: ``(op, connection id, start, end, request id)`` per handled request.
        self.requests: List[tuple] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._next_request = 0

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, record: bool) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child = frame
        duration = end - start
        self.self_time[name] += duration - child
        self.total_time[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        if record:
            parent = stack[-1][0] if stack else None
            self.spans.append((name, start, end, parent, _REQUEST.get()))

    def parent(self) -> str:
        """Name of the innermost open frame (``""`` at top level)."""
        return self._stack[-1][0] if self._stack else ""

    def in_layer(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)

    # ----------------------------------------------------------------- #
    # wrappers
    # ----------------------------------------------------------------- #
    def wrap(self, name: str, fn, record: bool = True, after=None, leaf: bool = False):
        """A timing wrapper around the plain, generator or async function ``fn``.

        A ``leaf`` wrapper is for a hot call that runs no other wrapped call:
        it pushes no frame and records no span, only its time and count.
        """
        enter, leave, counts = self._enter, self._leave, self.counts
        if leaf:
            self_time, total_time, calls, stack = (
                self.self_time, self.total_time, self.calls, self._stack
            )
            clock = time.perf_counter

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    self_time[name] += duration
                    total_time[name] += duration
                    calls[name] += 1
                    if stack:
                        stack[-1][2] += duration
                if after is not None:
                    after(self, args, result)
                return result

            return leaf_wrapper
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        leave(frame, record)
                        return
                    except BaseException:
                        leave(frame, record)
                        raise
                    leave(frame, record)
                    counts[name + ".yields"] += 1
                    try:
                        yield item
                    except GeneratorExit:
                        frame = enter(name)
                        try:
                            inner.close()
                        finally:
                            leave(frame, record)
                        raise

            return generator_wrapper
        if inspect.iscoroutinefunction(fn):
            tracer = self

            @functools.wraps(fn)
            async def request_wrapper(state, request, connection_sessions=None):
                tracer._next_request += 1
                request_id = tracer._next_request
                token = _REQUEST.set(request_id)
                start = time.perf_counter()
                try:
                    return await fn(state, request, connection_sessions)
                finally:
                    tracer.requests.append(
                        (str(request.get("op")), id(connection_sessions), start,
                         time.perf_counter(), request_id)
                    )
                    _REQUEST.reset(token)

            return request_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, record)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attribute: str, name: str, record: bool = True, after=None,
              leaf: bool = False) -> None:
        if isinstance(owner, type):
            own = owner.__dict__.get(attribute, _MISSING)
            original = own if own is not _MISSING else getattr(owner, attribute)
        else:
            own = original = getattr(owner, attribute)
        self._patches.append((owner, attribute, own))
        setattr(owner, attribute,
                self.wrap(name, original, record=record, after=after, leaf=leaf))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


# --------------------------------------------------------------------- #
# the module boundaries
# --------------------------------------------------------------------- #
KERNEL_OPS = (
    "maximally_extend",
    "batch_contains_superset",
    "first_jcc_union",
    "batch_contains_dead",
    "batch_contains_tombstoned",
)


def _count_candidate(tracer, args, result):
    if tracer.in_layer("delta."):
        tracer.counts["delta.candidates"] += 1


def _count_probe(tracer, args, result):
    if result:
        tracer.counts["complete.subsumed"] += 1


def _count_merge(tracer, args, result):
    if result:
        tracer.counts["merge.hits"] += 1


def _count_subset(tracer, args, result):
    if tracer.parent() == "incremental.complete_probe":
        tracer.counts["complete.sets_scanned"] += 1


def _pool_peak(tracer, args, result):
    size = len(args[0])
    if size > tracer.peaks["incomplete"]:
        tracer.peaks["incomplete"] = size


def _prime_parent(tracer, args, result):
    tracer.counts["prime.inside." + tracer.parent()] += 1


def install(tracer: Tracer) -> Tracer:
    """Patch every layer boundary of the program; returns ``tracer``."""
    import repro.core.approx as approx
    import repro.core.incremental as incremental
    import repro.core.priority as priority
    import repro.core.pools as pools
    import repro.core.store as store
    import repro.core.tupleset as tupleset
    import repro.exec.serial as serial
    import repro.relational.catalog as catalog
    import repro.relational.catalog_file as catalog_file
    import repro.service.cache as cache
    import repro.service.delta as delta
    import repro.service.server as server
    import repro.service.session as session
    import repro.storage.store as durable
    import repro.storage.wal as wal
    from repro.core.kernels import active_kernel

    patch = tracer.patch
    # exec: the pass loop over the relations (duplicate suppression lives here).
    patch(serial.SerialBackend, "run_singleton_passes", "exec.pass_loop")
    # core.incremental: the Fig. 1 loop, GetNextResult and its phases.
    patch(serial, "incremental_fd", "incremental.loop")
    patch(serial, "get_next_result", "incremental.next_result")
    patch(incremental, "get_next_result", "incremental.next_result")
    patch(priority, "get_next_result", "incremental.next_result")
    patch(incremental, "maximally_extend", "incremental.extend")
    patch(tupleset.TupleSet, "maximal_jcc_subset_with", "incremental.candidate",
          record=False, after=_count_candidate)
    patch(tupleset.TupleSet, "union_is_jcc", "incremental.merge", record=False,
          after=_count_merge)
    patch(store.CompleteStore, "contains_superset", "incremental.complete_probe",
          record=False, after=_count_probe)
    patch(tupleset.TupleSet, "issubset", "incremental.subset_test", leaf=True,
          after=_count_subset)
    # The ranked (core.priority) and approximate (core.approx) engines.
    patch(priority.PriorityState, "results", "ranked.loop")
    patch(approx, "approx_full_disjunction_sets", "approx.loop")
    patch(approx, "approx_get_next_result", "approx.next_result")
    # core.pools / core.store: Incomplete and Complete maintenance.
    for pool in (pools.ListIncompletePool, pools.PriorityIncompletePool):
        patch(pool, "pop", "pools.pop", record=False)
        patch(pool, "add", "pools.add", record=False, after=_pool_peak)
        patch(pool, "replace", "pools.replace", record=False)
    for pool in (store.ListIncompletePool, store.PriorityIncompletePool):
        patch(pool, "candidates", "pools.candidates", record=False)
    patch(store.CompleteStore, "add", "pools.complete_add", record=False)
    # core.kernels: whichever kernel is active.
    kernel_class = type(active_kernel())
    for op in KERNEL_OPS:
        patch(kernel_class, op, f"kernels.{op}")
    # relational.catalog / catalog_file.
    patch(catalog.Catalog, "__init__", "catalog.build")
    patch(catalog_file, "load_database", "catalog_file.attach")
    patch(catalog.Catalog, "consistent_mask", "catalog.row_read", leaf=True)
    patch(catalog.Catalog, "tuple_at", "catalog.row_read", leaf=True)
    # service.session / service.cache.
    patch(cache.PrefixCache, "open", "cache.open")
    patch(session.ResultLog, "ensure", "session.ensure")
    # service.server: request handling (async, recorded per request).
    patch(server.QueryServer, "handle_request", "server.request")
    # service.delta.
    patch(delta.StreamingFullDisjunction, "ingest", "delta.ingest")
    patch(delta.StreamingFullDisjunction, "remove", "delta.remove")
    patch(delta.StreamingFullDisjunction, "update", "delta.update")
    patch(delta.StreamingFullDisjunction, "prime", "delta.prime", after=_prime_parent)
    # storage: WAL, snapshots, recovery.
    patch(wal.WriteAheadLog, "append", "wal.append")
    patch(wal.WriteAheadLog, "sync", "wal.fsync")
    patch(durable.DurableStore, "snapshot_now", "snapshot.write")
    patch(server, "load_latest_snapshot", "recovery.snapshot_load")
    patch(server, "apply_wal_record", "recovery.replay")
    return tracer


#: Span-name prefixes of the program's layers (core.incremental, the ranked
#: and approximate engines, core.pools, core.kernels, relational.catalog,
#: service.cache and session, service.delta, storage, exec).  Their self
#: times over the traced time give ``trace.coverage``.
LAYER_PREFIXES = (
    "incremental.", "ranked.", "approx.", "pools.", "kernels.", "catalog.",
    "catalog_file.", "cache.", "session.", "delta.", "wal.", "snapshot.",
    "recovery.", "exec.",
)


def summary(tracer: Tracer) -> dict:
    """The tracer's aggregates in JSON form (what a traced process writes out)."""
    return {
        "self_time": dict(tracer.self_time),
        "total_time": dict(tracer.total_time),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "peaks": dict(tracer.peaks),
        "spans": [list(span) for span in tracer.spans],
        "requests": [list(entry) for entry in tracer.requests],
    }
