"""E15 — observability overhead and the first-k latency distribution.

The serving stack meters every request (per-op counters, per-op and
per-engine latency histograms, cache and session series) and traces phases.
The claim this experiment holds the instrumentation to: with metrics
*enabled*, the E6-shaped serving hot path stays within **5%** of the same
run with ``REPRO_METRICS=off`` (a disabled registry handing out the shared
no-op metric), on request streams that are verified response-identical.

The second table summarizes the enabled arm's latency histograms — the
first-k pull distribution an operator actually scrapes: counts, means, and
how much of the stream resolved under 1/10/100 ms.

Set ``REPRO_BENCH_SMOKE=1`` to restrict the sweep to the smallest workload
(used by the CI smoke job).
"""

import asyncio
import os
import time

from repro.obs import MetricsRegistry
from repro.service.server import QueryServer
from repro.workloads.generators import star_database

#: Timed runs per arm; the best of each arm is compared (load spikes hit
#: single runs, not minima).
REPEATS = 3 if os.environ.get("REPRO_BENCH_SMOKE") else 5

#: The headline bound: enabled best over disabled best, minus one.
MAX_OVERHEAD = 0.05


async def _drive(database, registry):
    """One full serving conversation: open, drain in chunks, ingest, stats."""
    state = QueryServer(database, registry=registry)
    transcript = []
    opened = await state.handle_request({"op": "open", "engine": "fd"})
    session = opened["session"]
    while True:
        reply = await state.handle_request(
            {"op": "next", "session": session, "k": 4}
        )
        transcript.append((reply["results"], reply["exhausted"]))
        if reply["exhausted"]:
            break
    closed = await state.handle_request({"op": "close", "session": session})
    transcript.append(closed["ok"])
    return transcript, state


def _timed_run(database, enabled):
    registry = MetricsRegistry(enabled=enabled)
    started = time.perf_counter()
    transcript, state = asyncio.run(_drive(database, registry))
    elapsed = time.perf_counter() - started
    return elapsed, transcript, state


def _best_runs(database):
    """Interleave the two arms so drift hits both equally; keep the minima."""
    _timed_run(database, enabled=True)  # warm the catalog and code paths
    _timed_run(database, enabled=False)
    best = {True: None, False: None}
    transcripts = {}
    states = {}
    for _ in range(REPEATS):
        for enabled in (True, False):
            elapsed, transcript, state = _timed_run(database, enabled)
            if best[enabled] is None or elapsed < best[enabled]:
                best[enabled] = elapsed
            transcripts[enabled] = transcript
            states[enabled] = state
    return best, transcripts, states


def _bucket_share(sample, bound):
    """Fraction of observations at or below ``bound`` seconds."""
    if not sample["count"]:
        return 0.0
    best = 0
    for le, cumulative in sample["buckets"]:
        if le <= bound:
            best = cumulative
    return best / sample["count"]


def test_e15_observability_overhead(benchmark, report_table):
    workloads = (
        ((3, 5),) if os.environ.get("REPRO_BENCH_SMOKE") else ((3, 5), (4, 6))
    )
    rows = []
    final_states = None
    for spokes, per_relation in workloads:
        database = star_database(
            spokes=spokes, tuples_per_relation=per_relation, hub_domain=2, seed=4
        )
        best, transcripts, states = _best_runs(database)
        # The two arms must do byte-identical serving work — same results,
        # same chunk boundaries, same exhaustion point — or the timing
        # comparison is meaningless.
        assert transcripts[True] == transcripts[False]
        assert states[True].steps == states[False].steps
        overhead = best[True] / best[False] - 1.0
        assert overhead <= MAX_OVERHEAD, (
            f"metrics overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} on "
            f"star {spokes}x{per_relation} "
            f"(enabled {best[True]:.4f}s vs disabled {best[False]:.4f}s)"
        )
        rows.append(
            [
                f"star {spokes}x{per_relation}",
                states[True].requests,
                f"{best[False] * 1000:.2f}",
                f"{best[True] * 1000:.2f}",
                f"{overhead:+.1%}",
            ]
        )
        final_states = states

    report_table(
        "E15: serving hot path, metrics enabled vs REPRO_METRICS=off "
        f"(best of {REPEATS})",
        [
            "workload",
            "requests",
            "disabled (ms)",
            "enabled (ms)",
            "overhead",
        ],
        rows,
    )

    # The enabled arm's latency histograms: what a scrape actually shows.
    registry = final_states[True].registry
    latency_rows = []
    for family_name, label_of in (
        ("repro_request_latency_seconds", lambda s: f"op={s['labels']['op']}"),
        (
            "repro_engine_latency_seconds",
            lambda s: f"engine={s['labels']['engine']}/{s['labels']['phase']}",
        ),
    ):
        family = registry.family(family_name)
        for sample in family.samples():
            if not sample["count"]:
                continue
            latency_rows.append(
                [
                    label_of(sample),
                    sample["count"],
                    f"{sample['sum'] / sample['count'] * 1000:.3f}",
                    f"{_bucket_share(sample, 0.001):.0%}",
                    f"{_bucket_share(sample, 0.01):.0%}",
                    f"{_bucket_share(sample, 0.1):.0%}",
                ]
            )
    report_table(
        "E15b: first-k latency histograms of the enabled arm (largest workload)",
        ["series", "count", "mean (ms)", "≤1ms", "≤10ms", "≤100ms"],
        latency_rows,
    )

    database = star_database(
        spokes=3, tuples_per_relation=5, hub_domain=2, seed=4
    )
    benchmark(lambda: _timed_run(database, enabled=True))
