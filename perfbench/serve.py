"""The ``serve-mixed`` workload: reads and writes against a durable ``repro serve``.

The server runs in its own process (``launcher.py`` → ``repro serve CSV…
--use-index --data-dir DIR``, default group commit and snapshot cadence).
This process is the traffic generator, with two connections:

* connection A, a closed loop of query sessions with think time (one session
  per ``READ_INTERVAL_S`` slot, or back to back when a session overruns its
  slot): ``open``, ``next`` in chunks up to k, ``close``; specs drawn in
  Zipf proportions (shuffled passes over ``gen.zipf_deck``) from more
  distinct specs than the prefix cache holds.  A session told that the
  database moved to a new generation is reopened (bounded retries) and its
  latency includes them;
* connection B, an open loop of ``ingest``/``retract``/``update`` batches,
  each timed from when it was due, sent by one thread and read back by
  another, so a slow reply never delays the next send.

Halfway through, the writer pauses while connection A *sweeps* the spec
catalog: one session per distinct spec, back to back, under one generation,
so the prefix cache fills and evicts.  The run ends with a SIGKILL of the
server and relaunches on the same directory, each timed to its first answer.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import calibrate
import gen
from common import p50, p90, peak_rss_mib_of

SETUP_REPEATS = 7
RESTARTS = 7
#: Due-time spacing of connection B's mutation batches.  Every batch
#: invalidates or revalidates the cache; at this rate most read sessions
#: still finish between two writes.
MUTATION_INTERVAL_S = 0.12
#: Connection A starts one session per slot of this length.  Pacing fixes
#: how many sessions meet each write, and so the cache's hit rate; with
#: back-to-back sessions a slower machine would also lower the hit rate and
#: count the same slowdown twice.  Sessions take 10-15 ms on average and up
#: to 50 ms on a slow stretch of the machine.  At 25 ms and at 40 ms slots
#: the loop fell behind its schedule for up to 40 % of the sessions on such
#: a stretch, running back to back; the queueing that followed raised the
#: mutations' p90 twice as much as the slowdown itself.
READ_INTERVAL_S = 0.05
QUERY_K = 6
CHUNK = 3
MAX_REOPENS = 5
#: Connection A's sessions per pass over the Zipf deck (about 12 s of them).
DECK_SIZE = 240
#: A calibration unit in connection A's think time needs this long free of
#: mutations and before the next session's slot.
UNIT_MARGIN_S = 0.015
#: Where in the run the cache sweep starts, as a share of the run.
SWEEP_AT = 0.5
#: A send later than this after its due time means the generator, not the
#: server, fell behind: the run's open-loop timings are then invalid.
MAX_SEND_LATENESS_S = 0.05
READY_TIMEOUT_S = 60.0
STALE = "reopen the query"


class Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")
        #: (op, round-trip seconds) per request, in order.
        self.trips: List[tuple] = []

    def send(self, request: dict) -> int:
        line = json.dumps(request).encode() + b"\n"
        self.writer.write(line)
        self.writer.flush()
        return len(line)

    def receive(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        started = time.perf_counter()
        self.send(request)
        reply = self.receive()
        self.trips.append((request["op"], time.perf_counter() - started))
        return reply

    def close(self) -> None:
        for handle in (self.reader, self.writer, self.sock):
            try:
                handle.close()
            except OSError:
                pass


class Server:
    """One ``repro serve`` process on a data directory."""

    def __init__(self, root: str, csvs: List[str], data_dir: str, log_path: str,
                 trace_out: Optional[str]):
        self.trace_out = trace_out
        self.log = open(log_path, "ab")
        command = [
            sys.executable, "-u", os.path.join(root, "perfbench", "launcher.py"),
            trace_out or "-", "serve", *csvs, "--use-index", "--data-dir", data_dir,
        ]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, stdout=subprocess.PIPE, stderr=self.log,
        )
        self.port = self._await_ready()
        self.ready_s = time.perf_counter() - self.started

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode()
            if not line:
                break
            if line.startswith("serving "):
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1].rstrip(","))
        self.kill()
        raise RuntimeError("the server exited or stalled before its ready line")

    def dump_trace(self) -> dict:
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.exists(self.trace_out):
                with open(self.trace_out) as handle:
                    return json.load(handle)
            time.sleep(0.02)
        raise RuntimeError("the traced server did not write its trace")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close()

    def _close(self) -> None:
        self.process.stdout.close()
        self.log.close()


class Writer:
    """Connection B: mutation batches on a fixed schedule (open loop)."""

    def __init__(self, port: int, model: gen.ServeModel, rng: random.Random):
        self.connection = Connection(port)
        self.model = model
        self.rng = rng
        self.sent: List[dict] = []
        self.received = 0
        self.next_due = float("inf")
        self.user_bytes = 0
        self.failures: List[str] = []
        #: One permit per batch sent, plus one when the sender stops.
        self._pending = threading.Semaphore(0)
        #: The sender holds off from ``quiet_at`` until ``resume`` is set.
        self.paused = threading.Event()
        self.resume = threading.Event()
        self._sender = threading.Thread(target=self._send_loop, daemon=True)
        self._receiver = threading.Thread(target=self._receive_loop, daemon=True)

    def start(self, begin: float, count: int, quiet_at: float) -> None:
        """Send ``count`` batches from ``begin``, pausing at ``quiet_at``.

        A fixed count, rather than a deadline the pause would move, makes
        the WAL the same length in every run, and with it the records a
        restart replays after the last snapshot.
        """
        self.begin, self.count, self.quiet_at = begin, count, quiet_at
        self._sender.start()
        self._receiver.start()

    def _send_loop(self) -> None:
        index = 0
        begin = self.begin
        try:
            while True:
                due = begin + index * MUTATION_INTERVAL_S
                self.next_due = due
                if due >= self.quiet_at and not self.resume.is_set():
                    self.paused.set()
                    self.resume.wait(timeout=60)
                    # The schedule restarts when the sweep ends, so the
                    # pause is not counted as lateness.
                    begin = time.perf_counter() - index * MUTATION_INTERVAL_S
                    continue
                if index == self.count:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                kind, entries = gen.mutation_batch(index, self.rng, self.model)
                # The model takes the batch now: later batches are drawn
                # against it, and the server applies batches in send order.
                self.model.apply(kind, entries)
                entry = {"kind": kind, "entries": entries, "due": due}
                self.sent.append(entry)
                entry["sent"] = time.perf_counter()
                self.user_bytes += self.connection.send({"op": kind, "tuples": entries})
                self._pending.release()
                index += 1
        finally:
            self._pending.release()

    def _receive_loop(self) -> None:
        try:
            while True:
                self._pending.acquire()
                if self.received == len(self.sent):
                    return  # the sender's stop permit: every reply is in
                reply = self.connection.receive()
                entry = self.sent[self.received]
                entry["replied"] = time.perf_counter()
                entry["reply"] = reply
                if not reply.get("ok"):
                    self.failures.append(f"{entry['kind']} refused: {reply.get('error')}")
                self.received += 1
        except (OSError, ValueError) as error:
            self.failures.append(f"writer connection failed: {error}")

    def idle_for(self, seconds: float) -> bool:
        """No batch awaits its reply and none is due within ``seconds``."""
        return (self.received == len(self.sent)
                and self.next_due - time.perf_counter() > seconds)

    def quiesce(self) -> bool:
        """Wait until the sender has paused and every batch it sent is answered."""
        deadline = time.monotonic() + 30
        if not self.paused.wait(timeout=30):
            return False
        while self.received < len(self.sent):
            if time.monotonic() > deadline or not self._receiver.is_alive():
                return False
            time.sleep(0.002)
        return True

    def finish(self) -> None:
        self.resume.set()
        self._sender.join(timeout=60)
        self._receiver.join(timeout=60)
        self.connection.close()


def _run_query(connection: Connection, spec: dict, stats: dict) -> Optional[dict]:
    """One session of connection A; ``None`` when it ran out of reopens."""
    started = time.perf_counter()
    first = None
    for attempt in range(MAX_REOPENS + 1):
        opened = connection.call({"op": "open", **spec})
        if not opened.get("ok"):
            stats["problems"].append(f"open refused: {opened.get('error')}")
            return None
        session = opened["session"]
        results: list = []
        stale = False
        while len(results) < QUERY_K:
            want = min(CHUNK, QUERY_K - len(results))
            reply = connection.call({"op": "next", "session": session, "k": want})
            if not reply.get("ok"):
                if STALE in str(reply.get("error")):
                    stale = True
                    break
                stats["problems"].append(f"next refused: {reply.get('error')}")
                connection.call({"op": "close", "session": session})
                return None
            if reply["results"] and first is None:
                first = time.perf_counter() - started
            results.extend(reply["results"])
            if len(reply["results"]) < want:
                break
        connection.call({"op": "close", "session": session})
        if not stale:
            if spec["engine"] == "ranked":
                scores = [item["score"] for item in results]
                if any(later > earlier for earlier, later in zip(scores, scores[1:])):
                    stats["problems"].append(f"ranked scores increase: {scores}")
            return {
                "first_s": first if first is not None else time.perf_counter() - started,
                "total_s": time.perf_counter() - started,
                "answers": len(results),
            }
        stats["stale_reopens"] += 1
    return None


def _drain_stream(connection: Connection) -> set:
    """The standing set of a fresh ``stream`` session: emits minus retractions."""
    opened = connection.call({"op": "open", "engine": "stream"})
    if not opened.get("ok"):
        raise RuntimeError(f"stream open refused: {opened.get('error')}")
    standing: set = set()
    while True:
        reply = connection.call({"op": "next", "session": opened["session"], "k": 512})
        if not reply.get("ok"):
            raise RuntimeError(f"stream next refused: {reply.get('error')}")
        for item in reply["results"]:
            if isinstance(item, dict) and "retract" in item:
                standing.discard(frozenset(item["retract"]))
            else:
                standing.add(frozenset(item))
        if len(reply["results"]) < 512:
            break
    connection.call({"op": "close", "session": opened["session"]})
    return standing


def _served_rows(connection: Connection) -> set:
    """Every answer of a fresh ``fd`` session, as labels and padded values.

    Unlike the stream's labels, the values show an ``update`` too, which
    changes a payload and keeps the label.
    """
    opened = connection.call({"op": "open", "engine": "fd", "format": "padded"})
    if not opened.get("ok"):
        raise RuntimeError(f"padded fd open refused: {opened.get('error')}")
    rows: set = set()
    while True:
        reply = connection.call({"op": "next", "session": opened["session"], "k": 512})
        if not reply.get("ok"):
            raise RuntimeError(f"padded fd next refused: {reply.get('error')}")
        for item in reply["results"]:
            rows.add((tuple(item["labels"]), json.dumps(item["row"], sort_keys=True)))
        if len(reply["results"]) < 512:
            break
    connection.call({"op": "close", "session": opened["session"]})
    return rows


def _reference(model: gen.ServeModel) -> set:
    """FD(R) of the relations rebuilt from the harness's own mutation log."""
    from repro import full_disjunction

    database = gen.build_database(model.relations())
    return {frozenset(t.label for t in ts) for ts in full_disjunction(database, use_index=True)}


def _stream_problem(standing: set, reference: set) -> tuple:
    """Check a stream's standing set against FD(R) of the rebuilt relations.

    The stream engine never retracts an answer that a later *ingest*
    extends (only deletions and updates retract), so the standing set is
    FD(R) plus such superseded answers.  Every member of FD(R) must stand,
    and every other standing answer must be a strict subset of a member.
    Returns ``(problem or "", number of superseded answers)``.
    """
    missing = reference - standing
    if missing:
        return f"{len(missing)} members of FD(R) are not standing, e.g. {sorted(next(iter(missing)))}", 0
    extras = standing - reference
    for extra in extras:
        if not any(extra < member for member in reference):
            return f"standing answer {sorted(extra)} is not contained in any member of FD(R)", 0
    return "", len(extras)


def _pair_wire(trace: dict, client: Connection) -> List[float]:
    """Connection A's round trips minus the server's ``handle_request`` times.

    The server records requests per connection; connection A's is the one
    whose sequence of ops matches the client's.
    """
    by_connection: Dict[int, List[tuple]] = {}
    for op, connection, start, end, _ in trace["requests"]:
        by_connection.setdefault(connection, []).append((op, end - start))
    ops = [op for op, _ in client.trips]
    for handled in by_connection.values():
        if [op for op, _ in handled] == ops:
            return [
                (trip - server) * 1000.0
                for (_, trip), (_, server) in zip(client.trips, handled)
            ]
    return []


def _phase(seed: int, seconds: float, traced: bool, workdir: str, root: str,
           setup_repeats: int, restarts: int) -> dict:
    relations = gen.serve_rows(seed)
    csvs = gen.write_csvs(relations, os.path.join(workdir, "csv"))
    tag = "traced" if traced else "plain"
    log_path = os.path.join(workdir, "server.log")
    problems: List[str] = []

    def trace_path(name):
        return os.path.join(workdir, f"{tag}-{name}.json") if traced else None

    # Set-up: launch to the ready line (bootstrap snapshot included).  The
    # other set-up samples are taken after the run, so they do not all fall
    # in one stretch of a shared machine's time.
    # Every timed sample is paired with calibration units (``calibrate``):
    # three before and one after each launch's timing, one in connection A's
    # think time after each session (the last one taken, when a mutation or
    # the next slot kept it from running); a mutation's reply uses the last
    # unit before it.
    timeline = calibrate.Timeline()

    def launch_units() -> float:
        return statistics.median(timeline.take() for _ in range(3))

    def launch_scale(before: float) -> float:
        return calibrate.scale((before + timeline.take()) / 2)

    data_dir = os.path.join(workdir, f"{tag}-data")
    before = launch_units()
    server = Server(root, csvs, data_dir, log_path, trace_path("main"))
    setup_s = [(server.ready_s, launch_scale(before))]

    specs = gen.serve_specs()
    deck = gen.zipf_deck(len(specs), DECK_SIZE)
    rng = random.Random(f"reads-{seed}")
    draws: List[int] = []
    model = gen.ServeModel(relations)
    stats = {"problems": problems, "stale_reopens": 0}
    queries: List[dict] = []
    sweep: List[dict] = []
    sweep_order = list(specs)
    random.Random(f"sweep-{seed}").shuffle(sweep_order)
    attempted = failed = 0
    reader = None
    try:
        reader = Connection(server.port)
        writer = Writer(server.port, model, random.Random(f"writes-{seed}"))
        begin = time.perf_counter()
        until = begin + seconds
        quiet_at = begin + SWEEP_AT * seconds
        writer.start(begin, round(seconds / MUTATION_INTERVAL_S), quiet_at)
        behind = slots = 0
        slot_base = begin
        swept = False
        while True:
            # Closed loop with think time: a session starts at its slot or,
            # when the previous one ran past it, as soon as that one closes.
            slot = slot_base + slots * READ_INTERVAL_S
            now = time.perf_counter()
            if now >= until:
                break
            if not swept and now >= quiet_at:
                swept = True
                if writer.quiesce():
                    for spec in sweep_order:
                        attempted += 1
                        outcome = _run_query(reader, spec, stats)
                        if outcome is None:
                            failed += 1
                        else:
                            sweep.append(outcome)
                else:
                    problems.append("the writer did not pause for the cache sweep")
                writer.resume.set()
                slot_base, slots = time.perf_counter(), 0
                continue
            if now < slot:
                time.sleep(slot - now)
            else:
                behind += 1
            if not draws:
                draws = list(deck)
                rng.shuffle(draws)
            spec = specs[draws.pop()]
            attempted += 1
            slots += 1
            outcome = _run_query(reader, spec, stats)
            # A unit slows the server on the other core by up to 40 %, so
            # it runs only while no mutation is in flight or about to be;
            # and only in think time, so it never delays the next session.
            next_slot = slot_base + slots * READ_INTERVAL_S
            if (next_slot - time.perf_counter() > UNIT_MARGIN_S
                    and writer.idle_for(UNIT_MARGIN_S)):
                timeline.take()
            if outcome is None:
                failed += 1
            else:
                outcome["scale"] = calibrate.scale(timeline.units[-1])
                queries.append(outcome)
        writer.finish()
        problems.extend(writer.failures)
        failed += sum(1 for entry in writer.sent if not entry.get("reply", {}).get("ok"))
        attempted += len(writer.sent)
        server_stats = reader.call({"op": "stats"})
        standing = _drain_stream(reader)
        reference = _reference(model)
        problem, superseded = _stream_problem(standing, reference)
        if problem:
            problems.append(f"stream: {problem}")
        trace = server.dump_trace() if traced else None
        peak_rss = peak_rss_mib_of(server.process.pid)
        acknowledged = _served_rows(reader)
    finally:
        if reader is not None:
            reader.close()
        server.kill()
    # Relaunch on the same directory after the SIGKILL, time to the first
    # answer; then crash and relaunch again, for a median of `restarts`.
    # The remaining set-up samples (fresh directories) alternate with them.
    restart_ms: List[tuple] = []
    restart_trace = None
    for attempt in range(restarts):
        if attempt + 1 < setup_repeats:
            before = launch_units()
            extra = Server(root, csvs, os.path.join(workdir, f"{tag}-setup-{attempt}"),
                           log_path, None)
            setup_s.append((extra.ready_s, launch_scale(before)))
            extra.stop()
        last = attempt == restarts - 1
        before = launch_units()
        restarted = Server(root, csvs, data_dir, log_path,
                           trace_path("restart") if last else None)
        try:
            client = Connection(restarted.port)
            try:
                opened = client.call({"op": "open", "engine": "fd"})
                first = client.call({"op": "next", "session": opened.get("session"), "k": 1})
                elapsed_ms = (time.perf_counter() - restarted.started) * 1000.0
                restart_ms.append((elapsed_ms, launch_scale(before)))
                if not first.get("ok") or not first.get("results"):
                    problems.append(f"no first answer after restart: {first}")
                client.call({"op": "close", "session": opened.get("session")})
                if attempt == 0 and _drain_stream(client) != standing:
                    problems.append("the restarted server does not serve the stream it acknowledged")
                if attempt == 0 and _served_rows(client) != acknowledged:
                    problems.append("the restarted server does not serve the rows it acknowledged")
            finally:
                client.close()
            if last and traced:
                restart_trace = restarted.dump_trace()
        finally:
            if last:
                restarted.stop()
            else:
                restarted.kill()

    mutations = [e for e in writer.sent if "replied" in e]
    lateness = [e["sent"] - e["due"] for e in writer.sent]
    late = max(lateness, default=0.0)
    if late > MAX_SEND_LATENESS_S:
        problems.append(
            f"invalid run: the generator sent a mutation {late * 1000:.1f} ms late"
        )
    mutation_ms = [((e["replied"] - e["due"]) * 1000.0, timeline.scale_at(e["replied"]))
                   for e in mutations[1:]]
    cache = server_stats.get("cache", {})
    durability = server_stats.get("durability", {})
    wal = durability.get("wal", {})
    snapshots = sorted(
        name for name in os.listdir(data_dir) if name.startswith("snapshot")
    )
    snapshot_bytes = os.path.getsize(os.path.join(data_dir, snapshots[-1])) if snapshots else 0

    def timings(scaled: bool) -> Dict[str, float]:
        def values(pairs):
            return [value * factor if scaled else value for value, factor in pairs]

        first = values((q["first_s"] * 1000.0, q["scale"]) for q in queries)
        total = values((q["total_s"] * 1000.0, q["scale"]) for q in queries)
        mutation = values(mutation_ms)
        return {
            "setup_s": p50(values(setup_s)),
            "first_answer_ms_p50": p50(first),
            "query_ms_p50": p50(total),
            "query_ms_p90": p90(total),
            "answers_per_s": sum(q["answers"] for q in queries) / (sum(total) / 1000.0),
            "mutation_ms_p50": p50(mutation),
            "mutation_ms_p90": p90(mutation),
            "restart_first_answer_ms": p50(values(restart_ms)),
        }

    metrics = timings(True)
    metrics["peak_rss_mib"] = peak_rss
    metrics["ok_share"] = (attempted - failed) / attempted
    extra = {
        "cache.hit_ratio": cache.get("hits", 0) / max(1, cache.get("hits", 0) + cache.get("misses", 0)),
        "cache.evictions": cache.get("evictions", 0),
        "cache.invalidated": cache.get("invalidations", 0),
        "cache.revalidated": cache.get("revalidations", 0),
        "session.stale_reopens": stats["stale_reopens"],
        "wal.records": wal.get("records_appended", 0),
        "wal.fsyncs": wal.get("fsyncs", 0),
        "wal.bytes_per_user_byte": wal.get("offset", 0) / max(1, writer.user_bytes),
        "snapshot.count": durability.get("snapshots_written", 0),
        "snapshot.bytes": snapshot_bytes,
    }
    details = {
        "queries": len(queries),
        "sessions_started_late": behind,
        "sweep_sessions": len(sweep),
        "sweep_ms_p50": p50(q["total_s"] * 1000.0 for q in sweep),
        "sweep_s": sum(q["total_s"] for q in sweep),
        "mutations": len(writer.sent),
        "first_mutation_ms": (mutations[0]["replied"] - mutations[0]["due"]) * 1000.0
        if mutations else None,
        "send_lateness_ms_p50": p50(x * 1000.0 for x in lateness),
        "send_lateness_ms_max": late * 1000.0,
        "schedule_valid": late <= MAX_SEND_LATENESS_S,
        "stale_reopens": stats["stale_reopens"],
        "cache": cache,
        "fd_members": len(reference),
        "standing_answers": len(standing),
        "superseded_standing": superseded,
        "kernel": server_stats.get("kernel"),
    }
    return {
        "metrics": metrics, "raw": timings(False), "extra": extra,
        "calibration": {"units": len(timeline.units), "unit_ms_p50": timeline.median(),
                        "unit_ms_min": min(timeline.units), "unit_ms_max": max(timeline.units)}, "details": details, "problems": problems,
        "attempted": attempted, "failed": failed, "trace": trace,
        "restart_trace": restart_trace, "reader": reader,
    }


def _merge(first: dict, second: dict) -> dict:
    merged = {}
    for key in ("self_time", "total_time", "calls", "counts"):
        table = dict(first[key])
        for name, value in second[key].items():
            table[name] = table.get(name, 0) + value
        merged[key] = table
    merged["peaks"] = {
        name: max(first["peaks"].get(name, 0), second["peaks"].get(name, 0))
        for name in set(first["peaks"]) | set(second["peaks"])
    }
    merged["spans"] = first["spans"] + second["spans"]
    merged["requests"] = first["requests"] + second["requests"]
    return merged


def run_serve(seed: int, seconds: float, trace: bool, workdir: str, root: str) -> dict:
    # Calibration units run in connection A's thread while the writer's
    # threads wait for their due times and replies; a short switch interval
    # keeps a unit from holding them up by more than half a millisecond.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    # With --trace 1 an untraced and a traced half run one after the other;
    # which comes first alternates with the seed, so a drift of the machine's
    # speed over a run does not always fall on the same half.
    halves = (False,)
    if trace:
        halves = (False, True) if seed % 2 == 0 else (True, False)
    phases = {}
    try:
        for traced_half in halves:
            repeats = 1 if traced_half else SETUP_REPEATS
            restarts = 1 if traced_half else RESTARTS
            phases[traced_half] = _phase(seed, seconds / len(halves), traced_half, workdir,
                                         root, repeats, restarts)
    finally:
        sys.setswitchinterval(switch_interval)
    plain = phases[False]
    layer = None
    problems = list(plain["problems"])
    attempted, failed = plain["attempted"], plain["failed"]
    if trace:
        traced = phases[True]
        problems += traced["problems"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        extra = dict(traced["extra"])
        extra["server.wire_ms_p50"] = p50(_pair_wire(traced["trace"], traced["reader"]))
        layer = {
            "trace": _merge(traced["trace"], traced["restart_trace"]),
            "busy_s": traced["trace"]["cpu_s"] + traced["restart_trace"]["cpu_s"],
            "overhead": traced["metrics"]["query_ms_p50"] / plain["metrics"]["query_ms_p50"] - 1.0,
            "extra": extra,
        }
    return {
        "metrics": plain["metrics"],
        "raw": plain["raw"],
        "calibration": plain["calibration"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layer": layer,
        "stamp": {"catalog_backing": "ram", "mutation_interval_s": MUTATION_INTERVAL_S,
                  "query_k": QUERY_K, "specs": len(gen.serve_specs())},
        "counts": {"plain": plain["details"],
                   "traced": traced["details"] if trace else None,
                   "cache_and_storage": plain["extra"]},
    }
