"""Serving: resumable sessions, shared prefixes, and streaming deltas.

This script walks the serving layer (PR 3) end to end on the paper's tourist
example:

1. open a :class:`~repro.service.session.QuerySession` and consume the full
   disjunction a few answers at a time — pausing and resuming never
   recomputes a ``GetNextResult`` step,
2. serve a second "client" the same query through the
   :class:`~repro.service.cache.PrefixCache` — the prefix is shared, the
   second computation never happens,
3. ingest streamed arrivals through the delta maintainer — each arrival
   seeds only its own singleton, and the open session observes the new
   results without restarting, and
4. multiplex several clients on one event loop through the server's
   :meth:`~repro.service.server.QueryServer.drive`, which hands the loop
   back after every ``GetNextResult`` step.

Run with::

    python examples/serving_sessions.py
"""

from __future__ import annotations

import asyncio

from repro import PrefixCache, StreamingFullDisjunction, open_session
from repro.service.cache import database_generation
from repro.service.server import QueryServer
from repro.workloads.streaming import hold_back_arrivals
from repro.workloads.tourist import tourist_database


def labels(tuple_set) -> str:
    return "{" + ", ".join(sorted(t.label for t in tuple_set)) + "}"


def main() -> None:
    database = tourist_database()

    print("== 1. a pausable first-k session =========================")
    session = open_session(database, "fd", use_index=True)
    print("first 3:", [labels(ts) for ts in session.next(3)])
    print("  ... the session is paused here; nothing is being computed ...")
    print("next 3: ", [labels(ts) for ts in session.next(3)])
    print("one more:", session.next(1), "-> exhausted:", session.exhausted)
    session.close()

    print()
    print("== 2. two clients, one computation ========================")
    cache = PrefixCache()
    alice = cache.open(database, "fd", use_index=True, name="alice")
    alice.drain()
    bob = cache.open(database, "fd", use_index=True, name="bob")
    print("bob's answers (served from alice's log):",
          len(bob.drain()), "results")
    print("cache:", cache.stats())
    print("generation token:", database_generation(database))

    print()
    print("== 3. streaming ingest with delta maintenance =============")
    workload = hold_back_arrivals(tourist_database(), fraction=0.4)
    maintainer = StreamingFullDisjunction(workload.database, use_index=True)
    watcher = maintainer.session(name="watcher")
    maintainer.prime()
    print("base results:", len(watcher.drain()))
    for arrival in workload.arrivals:
        record = maintainer.ingest([arrival])
        fresh = watcher.drain()
        print(f"  +{arrival.relation_name}{arrival.values}: "
              f"{record['results_emitted']} new result(s), "
              f"{record['candidates_generated']} candidates "
              f"-> {[labels(ts) for ts in fresh]}")
    maintainer.close()

    print()
    print("== 4. fair multiplexing on one event loop =================")
    server = QueryServer(database)
    sessions = [
        open_session(database, "fd", use_index=True, name=f"client-{i}")
        for i in range(3)
    ]

    async def serve_all():
        return await asyncio.gather(*(server.drive(s, 4) for s in sessions))

    per_client = asyncio.run(serve_all())
    for session_obj, results in zip(sessions, per_client):
        print(f"  {session_obj.name}: {[labels(ts) for ts in results]}")
        session_obj.close()
    print("steps per session:", dict(server.steps))


if __name__ == "__main__":
    main()
