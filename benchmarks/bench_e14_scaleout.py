"""E14 — bucket-grained work stealing and the anchor-bucket-sharded server.

Two questions about the scale-out layer:

1. **Pass latency** — on a skewed fixture (one hot relation dominating the
   work), how long does the bucket-grained schedule of
   :class:`~repro.exec.sharded.ShardedBackend` take at 1/2/4 workers, next
   to the serial passes?  The acceptance bar: byte-identical result
   streams *and* ``sets_scanned`` statistics across worker counts, and the
   serial answer set.  (Bucket-splitting can win even on one core:
   restricting each range to its anchor bucket keeps the per-range
   ``Complete`` store — and therefore ``sets_scanned`` per pop — small, so
   the skewed pass stops paying quadratic scan costs on its own bulk.)
2. **Serving** — sessions/sec and p50/p99 ``next`` latency through the
   sharded router at 1 and 2 shard processes, plus the backpressure
   contract: at ``max_sessions_per_shard=1`` the second identical ``open``
   must be refused ``busy`` with a retry hint, never queued unboundedly.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workloads (used by the CI smoke
job).  Tables land in ``benchmarks/artifacts/BENCH_E14.json``.
"""

import asyncio
import os
import time

from repro.core.incremental import FDStatistics
from repro.exec import SerialBackend, ShardedBackend, shutdown_pools
from repro.service.server import client_call
from repro.service.sharding import start_sharded_server
from repro.workloads.generators import skewed_chain_database, star_database

WORKER_COUNTS = (1, 2, 4)


def _skewed_fixture(smoke):
    if smoke:
        return skewed_chain_database(
            relations=4, tuples_per_relation=6, hot_relation=2, hot_factor=6,
            domain_size=4, null_rate=0.1, seed=0,
        )
    return skewed_chain_database(
        relations=4, tuples_per_relation=10, hot_relation=2, hot_factor=8,
        domain_size=4, null_rate=0.1, seed=0,
    )


def _keyed_stream(results):
    return [
        tuple(sorted((t.relation_name, t.label) for t in ts)) for ts in results
    ]


def _timed_run(backend, database, repeats):
    """Best-of-``repeats`` wall time; returns (seconds, stream, stats dict)."""
    best = None
    stream = stats = None
    for _ in range(repeats):
        statistics = FDStatistics()
        started = time.perf_counter()
        results = list(
            backend.run_singleton_passes(
                database, use_index=True, statistics=statistics
            )
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        stream = _keyed_stream(results)
        stats = statistics.as_dict()
    return best, stream, stats


def test_e14a_bucket_latency(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    repeats = 2 if smoke else 3
    database = _skewed_fixture(smoke)
    database.catalog()
    sizes = "/".join(str(len(relation)) for relation in database.relations)

    serial_s, serial_stream, _ = _timed_run(SerialBackend(), database, repeats)
    rows = []
    bucket_streams, bucket_stats = {}, {}
    try:
        for workers in WORKER_COUNTS:
            bucket_s, bucket_stream, stats = _timed_run(
                ShardedBackend(max_workers=workers), database, repeats
            )
            bucket_streams[workers] = bucket_stream
            bucket_stats[workers] = stats
            # Same members as serial; bucket ranges only reorder a pass.
            assert set(bucket_stream) == set(serial_stream)
            assert len(bucket_stream) == len(serial_stream)
            rows.append(
                [
                    workers,
                    len(bucket_stream),
                    f"{bucket_s:.3f}",
                    f"{serial_s / bucket_s:.2f}x",
                ]
            )
    finally:
        shutdown_pools()

    # Byte-identical streams and statistics across every worker count —
    # scheduling must never leak into results or sets_scanned.
    reference = bucket_streams[WORKER_COUNTS[0]]
    reference_stats = bucket_stats[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        assert bucket_streams[workers] == reference
        assert bucket_stats[workers] == reference_stats
    scanned = {
        key: value
        for key, value in reference_stats.items()
        if key.endswith("sets_scanned")
    }
    assert scanned, "sets_scanned extras missing from the merged statistics"

    report_table(
        f"E14a: bucket-grained pass latency per worker count (skewed chain "
        f"{sizes}, best of {repeats}; serial {serial_s:.3f}s; streams+stats "
        f"identical across worker counts; sets_scanned={scanned})",
        ["workers", "|FD|", "bucket-grained (s)", "vs serial"],
        rows,
    )


async def _drive_sessions(port, clients, chunk):
    """``clients`` concurrent open→drain→close cycles; returns latencies."""

    async def one_client(index):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        next_latencies = []
        try:
            opened = await client_call(
                reader, writer, {"op": "open", "engine": "fd"}
            )
            assert opened["ok"], opened
            session = opened["session"]
            results = []
            while True:
                started = time.perf_counter()
                reply = await client_call(
                    reader, writer,
                    {"op": "next", "session": session, "k": chunk},
                )
                next_latencies.append(time.perf_counter() - started)
                assert reply["ok"], reply
                results.extend(reply["results"])
                if reply["exhausted"]:
                    break
            await client_call(reader, writer, {"op": "close", "session": session})
        finally:
            writer.close()
            await writer.wait_closed()
        return results, next_latencies

    outcomes = await asyncio.gather(*(one_client(i) for i in range(clients)))
    streams = [stream for stream, _ in outcomes]
    assert all(stream == streams[0] for stream in streams[1:])
    return [latency for _, latencies in outcomes for latency in latencies]


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def test_e14b_sharded_serving(report_table):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    clients = 4 if smoke else 8
    database = star_database(
        spokes=3, tuples_per_relation=4 if smoke else 6, hub_domain=2, seed=1
    )

    async def serve_round(shards):
        server, router, port = await start_sharded_server(database, shards=shards)
        try:
            started = time.perf_counter()
            latencies = await _drive_sessions(port, clients, chunk=3)
            elapsed = time.perf_counter() - started
        finally:
            server.close()
            await server.wait_closed()
            await router.shutdown()
        return elapsed, latencies

    async def busy_round():
        server, router, port = await start_sharded_server(
            database, shards=2, max_sessions_per_shard=1
        )
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                first = await client_call(
                    reader, writer, {"op": "open", "engine": "fd"}
                )
                assert first["ok"]
                refused = await client_call(
                    reader, writer, {"op": "open", "engine": "fd"}
                )
                stats = await client_call(reader, writer, {"op": "stats"})
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
            await router.shutdown()
        return refused, stats

    rows = []
    for shards in (1, 2):
        elapsed, latencies = asyncio.run(serve_round(shards))
        rows.append(
            [
                shards,
                clients,
                f"{clients / elapsed:.1f}",
                f"{_percentile(latencies, 0.50) * 1e3:.2f}",
                f"{_percentile(latencies, 0.99) * 1e3:.2f}",
            ]
        )
    report_table(
        "E14b: sessions/sec and next-latency through the sharded router "
        f"({clients} concurrent clients, identical streams asserted)",
        ["shards", "clients", "sessions/s", "next p50 (ms)", "next p99 (ms)"],
        rows,
    )

    # The backpressure contract over the wire: past the per-shard session
    # limit the router answers busy-with-retry-hint, and counts it.
    refused, stats = asyncio.run(busy_round())
    assert refused.get("busy") is True
    assert refused["retry_after_ms"] > 0
    assert stats["busy_rejections"] >= 1
    report_table(
        "E14c: admission control at max_sessions_per_shard=1",
        ["second open", "retry_after_ms", "busy_rejections"],
        [["busy", refused["retry_after_ms"], stats["busy_rejections"]]],
    )
