"""The sharded server: routing, parity, broadcast mutations, backpressure.

Most suites here talk to the *router* in-process (``handle_request``) with
stub shards, so routing, admission control, and session rewriting are tested
without process spawns; two end-to-end suites start real shard processes and
assert client parity with the serial engine plus mutation broadcast.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.service.server import QueryServer, fetch_first_k
from repro.service.sharding import (
    ConsistentHashRing,
    ShardedQueryServer,
    ShardHandle,
    open_routing_key,
    run_sharded_smoke,
    start_sharded_server,
)
from repro.workloads.generators import star_database
from repro.workloads.tourist import tourist_database

from tests.service.test_server import assert_bad_lines_refused, exchange_bad_lines


def _run(coroutine):
    return asyncio.run(coroutine)


def _serial_labels(database, use_index=True):
    return [
        sorted(t.label for t in tuple_set)
        for tuple_set in full_disjunction_sets(database, use_index=use_index)
    ]


class _LocalShard(ShardHandle):
    """A shard handle answering through an in-process ``QueryServer``.

    Keeps the router suites free of process spawns: ``call`` dispatches to
    the real single-process request handler, so the router is exercised
    against the real protocol semantics.
    """

    def __init__(self, index, database, use_index=True):
        super().__init__(index, process=None, host="", port=0)
        self.state = QueryServer(database, use_index=use_index)

    async def call(self, request):
        self.requests += 1
        return await self.state.handle_request(request)


def _local_router(database, shards=2, **limits):
    handles = [_LocalShard(index, database) for index in range(shards)]
    return ShardedQueryServer(handles, **limits), handles


class TestRouting:
    def test_ring_is_deterministic_and_covers_all_shards(self):
        ring = ConsistentHashRing(4)
        again = ConsistentHashRing(4)
        keys = [f"query-{index}" for index in range(200)]
        placements = [ring.shard_for(key) for key in keys]
        assert placements == [again.shard_for(key) for key in keys]
        assert set(placements) == {0, 1, 2, 3}

    def test_identical_opens_share_a_routing_key(self):
        first = {"op": "open", "engine": "fd", "use_index": True}
        second = {"use_index": True, "engine": "fd", "op": "open"}
        assert open_routing_key(first) == open_routing_key(second)

    def test_different_queries_produce_different_keys(self):
        base = {"op": "open", "engine": "fd"}
        ranked = {"op": "open", "engine": "ranked", "importance": {"c1": 1.0}}
        assert open_routing_key(base) != open_routing_key(ranked)

    def test_identical_queries_land_on_one_shard_and_share_the_cache(self):
        database = tourist_database()
        router, handles = _local_router(database, shards=2)

        async def scenario():
            responses = [
                await router.handle_request({"op": "open", "engine": "fd"})
                for _ in range(4)
            ]
            return responses

        responses = _run(scenario())
        assert all(response["ok"] for response in responses)
        shards_used = {response["shard"] for response in responses}
        assert len(shards_used) == 1
        # All four sessions share the target shard's single cached prefix.
        target = handles[next(iter(shards_used))]
        assert target.state.cache.stats()["hits"] == 3
        # Session names are router-global, never shard-local.
        assert all(response["session"].startswith("g") for response in responses)

    def test_session_ops_route_back_to_the_owning_shard(self):
        database = tourist_database()
        router, handles = _local_router(database, shards=3)
        serial = _serial_labels(database)

        async def scenario():
            opened = await router.handle_request({"op": "open", "engine": "fd"})
            name = opened["session"]
            results = []
            while True:
                reply = await router.handle_request(
                    {"op": "next", "session": name, "k": 3}
                )
                assert reply["ok"]
                results.extend(reply["results"])
                if reply["exhausted"]:
                    break
            closed = await router.handle_request(
                {"op": "close", "session": name}
            )
            assert closed["ok"]
            return results

        assert _run(scenario()) == serial

    def test_unknown_session_and_op_are_refused(self):
        router, _ = _local_router(tourist_database())

        async def scenario():
            missing = await router.handle_request(
                {"op": "next", "session": "g99", "k": 1}
            )
            unknown = await router.handle_request({"op": "warp"})
            return missing, unknown

        missing, unknown = _run(scenario())
        assert not missing["ok"] and "no session" in missing["error"]
        assert not unknown["ok"] and "unknown op" in unknown["error"]


class TestBroadcastMutations:
    def test_ingest_reaches_every_shard(self):
        database = tourist_database()
        router, handles = _local_router(database, shards=2)

        async def scenario():
            return await router.handle_request(
                {"op": "ingest", "tuples": [["Climates", ["finland", "cold"]]]}
            )

        response = _run(scenario())
        assert response["ok"]
        assert response["shards_applied"] == 2
        assert all(
            handle.state.maintainer.arrivals_applied == 1 for handle in handles
        )

    def test_bad_retract_touches_no_shard(self):
        database = tourist_database()
        router, handles = _local_router(database, shards=2)

        async def scenario():
            return await router.handle_request(
                {"op": "retract", "tuples": [["Prices", "no_such_label"]]}
            )

        response = _run(scenario())
        assert not response["ok"]
        assert all(
            handle.state.maintainer.mutations_applied == 0 for handle in handles
        )


class TestAdmissionControl:
    def test_session_capacity_returns_busy(self):
        database = tourist_database()
        router, _ = _local_router(database, shards=1, max_sessions_per_shard=2)

        async def scenario():
            opens = [
                await router.handle_request({"op": "open", "engine": "fd"})
                for _ in range(3)
            ]
            return opens

        opens = _run(scenario())
        assert opens[0]["ok"] and opens[1]["ok"]
        refused = opens[2]
        assert not refused["ok"]
        assert refused["busy"] is True
        assert refused["retry_after_ms"] > 0

    def test_closing_a_session_frees_capacity(self):
        database = tourist_database()
        router, _ = _local_router(database, shards=1, max_sessions_per_shard=1)

        async def scenario():
            first = await router.handle_request({"op": "open", "engine": "fd"})
            refused = await router.handle_request({"op": "open", "engine": "fd"})
            await router.handle_request(
                {"op": "close", "session": first["session"]}
            )
            reopened = await router.handle_request({"op": "open", "engine": "fd"})
            return refused, reopened

        refused, reopened = _run(scenario())
        assert refused.get("busy") is True
        assert reopened["ok"]

    def test_queue_capacity_returns_busy(self):
        database = tourist_database()
        router, handles = _local_router(
            database, shards=1, max_queue_per_shard=1
        )
        handles[0].pending = 1  # a request is already in flight

        async def scenario():
            return await router.handle_request({"op": "open", "engine": "fd"})

        refused = _run(scenario())
        assert refused.get("busy") is True
        assert "capacity" in refused["error"]

    def test_stats_exposes_gauges_and_limits(self):
        database = tourist_database()
        router, _ = _local_router(
            database, shards=2, max_sessions_per_shard=5, max_queue_per_shard=7
        )

        async def scenario():
            await router.handle_request({"op": "open", "engine": "fd"})
            return await router.handle_request({"op": "stats"})

        stats = _run(scenario())
        assert stats["ok"]
        assert stats["shards"] == 2
        assert stats["sessions"] == 1
        assert stats["limits"] == {
            "max_sessions_per_shard": 5,
            "max_queue_per_shard": 7,
        }
        assert len(stats["per_shard"]) == 2
        for entry in stats["per_shard"]:
            assert {"shard", "sessions", "queue_depth", "requests", "cache"} <= set(
                entry
            )
        assert sum(entry["sessions"] for entry in stats["per_shard"]) == 1

    def test_busy_rejections_are_counted(self):
        database = tourist_database()
        router, _ = _local_router(database, shards=1, max_sessions_per_shard=1)

        async def scenario():
            await router.handle_request({"op": "open", "engine": "fd"})
            await router.handle_request({"op": "open", "engine": "fd"})
            return await router.handle_request({"op": "stats"})

        stats = _run(scenario())
        assert stats["busy_rejections"] == 1


class TestEndToEnd:
    """Real shard processes — kept small, two suites only."""

    def test_sharded_smoke_parity(self):
        database = star_database(
            spokes=3, tuples_per_relation=4, hub_domain=2, seed=1
        )
        outcome = run_sharded_smoke(database, clients=4, shards=2)
        assert outcome["clients"] == 4
        assert outcome["shards"] == 2
        assert outcome["results_per_client"] > 0

    def test_mutations_and_busy_over_the_wire(self):
        database = tourist_database()

        async def scenario():
            server, router, port = await start_sharded_server(
                database, shards=2, max_sessions_per_shard=1
            )
            try:
                # Two distinct queries may land anywhere; the same query
                # twice lands on one shard and the second open must be
                # refused busy at capacity 1.
                from repro.service.server import client_call

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    first = await client_call(
                        reader, writer, {"op": "open", "engine": "fd"}
                    )
                    assert first["ok"]
                    refused = await client_call(
                        reader, writer, {"op": "open", "engine": "fd"}
                    )
                    assert refused.get("busy") is True
                    # Broadcast ingest reaches both shards and the session's
                    # shard still answers afterwards (stream-free session
                    # fails fast only on deep pulls; a stats round trip
                    # suffices here).
                    ingested = await client_call(
                        reader, writer,
                        {"op": "ingest", "tuples": [["Climates", ["norway", "cold"]]]},
                    )
                    assert ingested["ok"]
                    assert ingested["shards_applied"] == 2
                    stats = await client_call(reader, writer, {"op": "stats"})
                    assert stats["ok"] and stats["shards"] == 2
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await router.shutdown()

        _run(scenario())


class TestRouterWire:
    def test_bad_request_lines_get_error_replies_on_the_same_connection(self):
        router, _ = _local_router(tourist_database(), shards=2)

        async def scenario():
            server = await asyncio.start_server(router.handle_connection, "127.0.0.1", 0)
            try:
                return await exchange_bad_lines(server.sockets[0].getsockname()[1])
            finally:
                server.close()
                await server.wait_closed()

        replies, tail = _run(scenario())
        assert_bad_lines_refused(replies, tail)


class TestRouterValidation:
    def test_rejects_non_positive_limits(self):
        handles = [_LocalShard(0, tourist_database())]
        with pytest.raises(ValueError):
            ShardedQueryServer(handles, max_sessions_per_shard=0)
        with pytest.raises(ValueError):
            ShardedQueryServer(handles, max_queue_per_shard=0)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)

        async def scenario():
            await start_sharded_server(tourist_database(), shards=0)

        with pytest.raises(ValueError):
            _run(scenario())

    def test_fetch_first_k_works_through_the_router(self):
        """The stock client helper needs no changes to speak to the router."""
        database = tourist_database()
        serial = _serial_labels(database)

        async def scenario():
            server, router, port = await start_sharded_server(database, shards=2)
            try:
                return await fetch_first_k("127.0.0.1", port, None, chunk=3)
            finally:
                server.close()
                await server.wait_closed()
                await router.shutdown()

        assert _run(scenario()) == serial
