"""The two in-process workloads: ``firstk-star`` and ``full-chain``.

Both drive the library's public entry points with the default serial backend
and ``use_index=True``.  A run is the measured query loop, interrupted at
``TICKS`` evenly spaced points by a *tick*: one cold set-up followed by the
first answer (the set-up and restart samples) and a burst of in-place
updates on a database the queries never read (the mutation samples).
Spreading those samples over the run, instead of taking them all at its
start, keeps a slow stretch of a shared machine from landing on all of them.
After the loop, a counting pass checks that the work counts repeat exactly
and sets them beside the engine's own ``FDStatistics``.  With ``--trace 1``
short blocks of queries alternate between untraced and traced
(``Alternation``); the end-to-end numbers then come from the untraced blocks.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Callable, Dict, List

import calibrate
import gen
from checks import DefinitionChecker, check_answers, labels_of, result_set
from common import p50, p90, peak_rss_mib
from tracer import Tracer, install, summary

TICKS = 16
MUTATIONS_PER_TICK = 50
COUNT_KEYS = ("candidates", "merge_tests", "complete_sets_scanned", "row_reads")


class Samples:
    """The samples of a run's ticks."""

    def __init__(self):
        self.setup_s: List[float] = []
        self.restart_ms: List[float] = []
        self.mutation_ms: List[float] = []

    def absorb(self, tick: "Samples", factor: float) -> None:
        for name in ("setup_s", "restart_ms", "mutation_ms"):
            getattr(self, name).extend(value * factor for value in getattr(tick, name))


class QueryLoop:
    """The samples of a run's queries."""

    def __init__(self):
        self.first_ms: List[float] = []
        self.query_ms: List[float] = []
        self.answers = 0

    def record(self, first_s: float, total_s: float, count: int, factor: float = 1.0) -> None:
        self.first_ms.append(first_s * 1000.0 * factor)
        self.query_ms.append(total_s * 1000.0 * factor)
        self.answers += count


class Measured:
    """A run's samples as timed, and scaled to the reference host.

    Each query is followed by one calibration unit, and each tick framed by
    two; the units' time scales the samples next to them (``calibrate``).
    """

    def __init__(self):
        self.raw, self.scaled = QueryLoop(), QueryLoop()
        self.raw_ticks, self.scaled_ticks = Samples(), Samples()
        self.units: List[float] = []

    def query(self, outcome: tuple) -> None:
        unit = calibrate.unit_ms()
        self.units.append(unit)
        self.raw.record(*outcome)
        self.scaled.record(*outcome, calibrate.scale(unit))

    def tick(self, run_tick: Callable[[Samples], None]) -> None:
        before = calibrate.unit_ms()
        tick = Samples()
        run_tick(tick)
        after = calibrate.unit_ms()
        self.units += [before, after]
        self.raw_ticks.absorb(tick, 1.0)
        self.scaled_ticks.absorb(tick, calibrate.scale((before + after) / 2))


def run_loop(query: Callable[[int], None], seconds: float,
             tick: Callable[[int], None]) -> None:
    """Run queries until the deadline, pausing for a tick at fixed points."""
    begin = time.perf_counter()
    deadline = begin + seconds
    ticks = index = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and index >= 2:
            break
        if ticks < TICKS and now >= begin + ticks * seconds / TICKS:
            tick(ticks)
            ticks += 1
            continue
        query(index)
        index += 1


def _harness_counts(tracer: Tracer) -> Dict[str, int]:
    return {
        "candidates": tracer.calls.get("incremental.candidate", 0),
        "merge_tests": tracer.calls.get("incremental.merge", 0),
        "merges": tracer.counts.get("merge.hits", 0),
        "complete_sets_scanned": tracer.counts.get("complete.sets_scanned", 0),
        "row_reads": tracer.calls.get("catalog.row_read", 0),
    }


def _counted(run_query) -> tuple:
    """Run one query twice under counting wrappers; returns (per-run counts, statistics)."""
    from repro import FDStatistics

    tracer = install(Tracer())
    per_run = []
    try:
        for _ in range(2):
            before = _harness_counts(tracer)
            statistics = FDStatistics()
            run_query(statistics)
            after = _harness_counts(tracer)
            per_run.append({key: after[key] - before[key] for key in after})
    finally:
        tracer.uninstall()
    return per_run, statistics


def _engine_agreement(harness: Dict[str, int], statistics) -> Dict[str, object]:
    """The engine's own ``FDStatistics`` beside the harness's counts."""
    engine = {
        "candidates": statistics.candidates_generated,
        "merges": statistics.candidates_merged,
        "complete_sets_scanned": statistics.extras.get("complete_sets_scanned", 0),
    }
    return {
        "engine": engine,
        "harness": {key: harness[key] for key in engine},
        "agree": all(engine[key] == harness[key] for key in engine),
    }


def _mutation_burst(database, rows: Dict[tuple, list], rng: random.Random,
                    payload_column: int, samples: Samples) -> None:
    """In-place payload updates: the library's mutation path.

    Each ``Database.update_tuple`` tombstones the old incarnation and appends
    the new one to the catalog (and, for a mapped catalog, to its file).
    """
    from repro.relational.nulls import NULL

    keys = sorted(rows)
    for _ in range(MUTATIONS_PER_TICK):
        name, label = rng.choice(keys)
        values = rows[(name, label)]
        values[payload_column] = f"u{rng.randrange(10 ** 9)}"
        started = time.perf_counter()
        database.update_tuple(name, label, [NULL if v is None else v for v in values])
        samples.mutation_ms.append((time.perf_counter() - started) * 1000.0)


class StarWorkload:
    """``firstk-star``: cold first-k queries over a pool of star databases."""

    backing = "ram"
    cycle = gen.STAR_POOL

    def __init__(self, seed: int, workdir: str):
        from repro import full_disjunction_sets

        self._fd = full_disjunction_sets
        self.pool_rows = [gen.star_rows(seed, index) for index in range(gen.STAR_POOL)]
        self.checkers = [DefinitionChecker(rows) for rows in self.pool_rows]
        self.pool = [gen.build_database(rows) for rows in self.pool_rows]
        for database in self.pool:
            database.catalog()
        self.mutated = gen.build_database(self.pool_rows[0])
        self.mutated.catalog()
        self.mutated_rows = {
            (name, label): list(values)
            for name, _, labelled in self.pool_rows[0] for label, values in labelled
        }
        self.rng = random.Random(f"mutate-{seed}")
        self.problems: List[str] = []
        self.attempted = self.failed = 0

    def first_k(self, database, statistics=None) -> tuple:
        answers = []
        started = time.perf_counter()
        first = 0.0
        for result in self._fd(database, use_index=True, statistics=statistics):
            if not answers:
                first = time.perf_counter() - started
            answers.append(labels_of(result))
            if len(answers) == gen.STAR_K:
                break
        return answers, first, time.perf_counter() - started

    def query(self, index: int) -> tuple:
        slot = index % len(self.pool)
        self.attempted += 1
        answers, first, total = self.first_k(self.pool[slot])
        problem = check_answers(self.checkers[slot], answers)
        if not problem and len(answers) != gen.STAR_K:
            problem = f"{len(answers)} answers, wanted {gen.STAR_K}"
        if problem:
            self.failed += 1
            self.problems.append(f"pool[{slot}] {problem}")
        return first, total, len(answers)

    def tick(self, index: int, samples: Samples) -> None:
        fresh = gen.build_database(self.pool_rows[index % len(self.pool_rows)])
        started = time.perf_counter()
        fresh.catalog()
        built = time.perf_counter()
        self.first_k(fresh)
        samples.setup_s.append(built - started)
        samples.restart_ms.append((time.perf_counter() - started) * 1000.0)
        _mutation_burst(self.mutated, self.mutated_rows, self.rng, 1, samples)

    def count_pass(self) -> dict:
        runs, cross = [], []
        for database in self.pool:
            per_run, statistics = _counted(lambda stats: self.first_k(database, stats))
            runs.append(per_run)
            cross.append(_engine_agreement(per_run[-1], statistics))
        return {"per_query_repeats": runs, "engine_cross_check": cross}

    def stamp(self) -> dict:
        return {"k": gen.STAR_K, "pool": gen.STAR_POOL, "tuples_per_spoke": gen.STAR_TUPLES}


class ChainWorkload:
    """``full-chain``: complete full disjunctions over a mapped chain database."""

    backing = "mmap"
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        from repro import full_disjunction_sets
        from repro.baselines.batch import batch_full_disjunction
        from repro.relational import catalog_file

        self._fd = full_disjunction_sets
        # Looked up at each call, so the traced run sees the wrapped function.
        self._catalog_file = catalog_file
        self.workdir = workdir
        self.rows = gen.chain_rows(seed)
        self.checker = DefinitionChecker(self.rows)
        source = gen.build_database(self.rows)
        self.reference = result_set(batch_full_disjunction(source))
        self.mirror = os.path.join(workdir, "chain.rpmc")
        source.save_mirror(self.mirror)
        self.database = self.attach("query")
        self.mutated = self.attach("mutated")
        self.mutated_rows = {
            (name, label): list(values)
            for name, _, labelled in self.rows for label, values in labelled
        }
        self.rng = random.Random(f"mutate-{seed}")
        self.problems: List[str] = []
        if not self.database.catalog().rows_mapped:
            self.problems.append("the attached catalog does not read rows from the mapped file")
        self.attempted = self.failed = 0

    def attach(self, name: str):
        copy = os.path.join(self.workdir, f"{name}.rpmc")
        shutil.copyfile(self.mirror, copy)
        return self._catalog_file.load_database(copy, writable=True)

    def full(self, database, statistics=None) -> tuple:
        started = time.perf_counter()
        first = 0.0
        results = []
        for result in self._fd(database, use_index=True, statistics=statistics):
            if not results:
                first = time.perf_counter() - started
            results.append(labels_of(result))
        return results, first, time.perf_counter() - started

    def query(self, index: int) -> tuple:
        self.attempted += 1
        results, first, total = self.full(self.database)
        problem = check_answers(self.checker, results)
        if not problem and set(results) != self.reference:
            problem = f"{len(results)} results, the batch reference has {len(self.reference)}"
        if problem:
            self.failed += 1
            self.problems.append(f"repetition {index}: {problem}")
        return first, total, len(results)

    def tick(self, index: int, samples: Samples) -> None:
        copy = os.path.join(self.workdir, f"tick-{index}.rpmc")
        shutil.copyfile(self.mirror, copy)
        started = time.perf_counter()
        database = self._catalog_file.load_database(copy, writable=True)
        attached = time.perf_counter()
        results = self._fd(database, use_index=True)
        next(results)
        samples.restart_ms.append((time.perf_counter() - started) * 1000.0)
        samples.setup_s.append(attached - started)
        results.close()
        _mutation_burst(self.mutated, self.mutated_rows, self.rng, 2, samples)

    def count_pass(self) -> dict:
        per_run, statistics = _counted(lambda stats: self.full(self.database, stats))
        return {"per_query_repeats": [per_run],
                "engine_cross_check": [_engine_agreement(per_run[-1], statistics)]}

    def stamp(self) -> dict:
        return {"results": len(self.reference), "blocks": gen.CHAIN_BLOCKS}


class Alternation:
    """The traced run: blocks of queries alternate untraced and traced.

    A block is one pass over the workload's databases, so both halves query
    the same databases, and blocks are short, so a slow stretch of the
    machine falls on both halves alike.  Ticks alternate the same way.
    """

    def __init__(self, workload, measured: Measured):
        self.workload = workload
        self.plain = measured
        self.tracer = Tracer()
        self.traced = QueryLoop()
        self.traced_s = 0.0

    def _traced(self, step, *args):
        install(self.tracer)
        started = time.perf_counter()
        try:
            return step(*args)
        finally:
            self.traced_s += time.perf_counter() - started
            self.tracer.uninstall()

    def query(self, index: int) -> None:
        if (index // self.workload.cycle) % 2:
            self.traced.record(*self._traced(self.workload.query, index))
        else:
            self.plain.query(self.workload.query(index))

    def tick(self, index: int) -> None:
        if index % 2:
            self._traced(self.workload.tick, index, Samples())
        else:
            self.plain.tick(lambda samples: self.workload.tick(index, samples))


def _timings(loop: QueryLoop, ticks: Samples) -> Dict[str, float]:
    return {
        "setup_s": p50(ticks.setup_s),
        "first_answer_ms_p50": p50(loop.first_ms),
        "query_ms_p50": p50(loop.query_ms),
        "query_ms_p90": p90(loop.query_ms),
        "answers_per_s": loop.answers / (sum(loop.query_ms) / 1000.0),
        "mutation_ms_p50": p50(ticks.mutation_ms),
        "mutation_ms_p90": p90(ticks.mutation_ms),
        "restart_first_answer_ms": p50(ticks.restart_ms),
    }


def run_inprocess(workload_class, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = workload_class(seed, workdir)
    measured = Measured()
    layer = None
    if trace:
        alternation = Alternation(workload, measured)
        run_loop(alternation.query, seconds, alternation.tick)
        layer = {
            "trace": summary(alternation.tracer),
            "busy_s": alternation.traced_s,
            "overhead": p50(alternation.traced.query_ms) / p50(measured.raw.query_ms) - 1.0,
        }
    else:
        run_loop(lambda index: measured.query(workload.query(index)), seconds,
                 lambda index: measured.tick(lambda samples: workload.tick(index, samples)))
    # Before the counting pass, whose wrappers and repeated queries are
    # harness state, not the program's.
    peak_rss = peak_rss_mib()

    counts = workload.count_pass()
    repeat_ok = all(
        runs[0][key] == runs[1][key] for runs in counts["per_query_repeats"] for key in COUNT_KEYS
    )
    if not repeat_ok:
        workload.problems.append("work counts differ between repetitions of one query")
    counts["repeat_identical"] = repeat_ok
    counts["engine_agrees"] = all(entry["agree"] for entry in counts["engine_cross_check"])

    metrics = _timings(measured.scaled, measured.scaled_ticks)
    metrics["peak_rss_mib"] = peak_rss
    metrics["ok_share"] = (workload.attempted - workload.failed) / workload.attempted
    return {
        "metrics": metrics,
        "raw": _timings(measured.raw, measured.raw_ticks),
        "calibration": {"units": len(measured.units), "unit_ms_p50": p50(measured.units),
                        "unit_ms_min": min(measured.units), "unit_ms_max": max(measured.units)},
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "layer": layer,
        "stamp": {"catalog_backing": workload.backing, "queries": len(measured.raw.query_ms),
                  **workload.stamp()},
        "counts": counts,
    }


def run_firstk(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    return run_inprocess(StarWorkload, seed, seconds, trace, workdir)


def run_full_chain(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    return run_inprocess(ChainWorkload, seed, seconds, trace, workdir)
