"""Shared pieces: metric names, percentiles, the environment stamp, per-layer metrics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional

from tracer import KERNEL_OPS, LAYER_PREFIXES

#: End-to-end metrics: (name, unit).  Every workload reports every one.
END_TO_END = [
    ("setup_s", "s"),
    ("first_answer_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("answers_per_s", "1/s"),
    ("mutation_ms_p50", "ms"),
    ("mutation_ms_p90", "ms"),
    ("restart_first_answer_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "ratio"),
]

SERVER_OPS = ("open", "next", "close", "ingest", "retract", "update")

#: Per-layer metrics of the traced run: (name, unit).  Every workload reports
#: every one; a layer the workload does not exercise reads 0.
PER_LAYER = (
    [
        ("pools.replace_s", "s"),
        ("pools.add_s", "s"),
        ("pools.pop_s", "s"),
        ("pools.candidates_s", "s"),
        ("pools.complete_add_s", "s"),
        ("pools.incomplete_peak", "count"),
        ("incremental.next_result_s", "s"),
        ("incremental.extend_s", "s"),
        ("incremental.extend_calls", "count"),
        ("incremental.candidate_s", "s"),
        ("incremental.candidates", "count"),
        ("incremental.merge_s", "s"),
        ("incremental.merge_tests", "count"),
        ("incremental.merge_hit_ratio", "ratio"),
        ("incremental.complete_probe_s", "s"),
        ("incremental.complete_sets_scanned", "count"),
        ("incremental.subsumed_ratio", "ratio"),
        ("exec.pass_loop_s", "s"),
        ("exec.duplicates_skipped", "count"),
    ]
    + [(f"kernels.{op}_{suffix}", unit) for op in KERNEL_OPS
       for suffix, unit in (("s", "s"), ("calls", "count"))]
    + [
        ("catalog.build_s", "s"),
        ("catalog_file.attach_s", "s"),
        ("catalog.row_reads", "count"),
        ("catalog.row_read_s", "s"),
    ]
    + [(f"server.request_ms_p50.{op}", "ms") for op in SERVER_OPS]
    + [
        ("server.wire_ms_p50", "ms"),
        ("cache.hit_ratio", "ratio"),
        ("cache.open_s", "s"),
        ("cache.evictions", "count"),
        ("cache.invalidated", "count"),
        ("cache.revalidated", "count"),
        ("session.stale_reopens", "count"),
        ("session.ensure_s", "s"),
        ("delta.ingest_s", "s"),
        ("delta.remove_s", "s"),
        ("delta.update_s", "s"),
        ("delta.prime_s", "s"),
        ("delta.candidates_generated", "count"),
        ("wal.append_s", "s"),
        ("wal.records", "count"),
        ("wal.fsyncs", "count"),
        ("wal.bytes_per_user_byte", "ratio"),
        ("snapshot.write_s", "s"),
        ("snapshot.count", "count"),
        ("snapshot.bytes", "B"),
        ("recovery.snapshot_load_s", "s"),
        ("recovery.replay_s", "s"),
        ("recovery.records_replayed", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)

#: Variables that select a different program; stripped before ``repro`` loads.
PROGRAM_SWITCHES = ("REPRO_KERNEL", "REPRO_MMAP", "REPRO_METRICS")


def p50(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p90(values: Iterable[float]) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def strip_program_switches() -> List[str]:
    """Remove any ``REPRO_*`` variable that would swap the measured program.

    Called before ``repro`` is imported, so the kernel, catalog backing and
    metrics registry are the defaults; the removed names go in the stamp.
    """
    flagged = []
    for name in PROGRAM_SWITCHES:
        if name in os.environ:
            flagged.append(f"{name}={os.environ.pop(name)}")
    return flagged


def source_digest(root: str) -> str:
    digest = hashlib.sha1()
    for directory, _, files in sorted(os.walk(os.path.join(root, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def env_stamp(root: str, flagged: List[str], **extra) -> dict:
    from repro.core.kernels import active_kernel
    from repro.storage import DEFAULT_FSYNC_EVERY, DEFAULT_SNAPSHOT_EVERY

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "kernel": active_kernel().name,
        "git_sha": git_sha(root),
        "source_sha1": source_digest(root),
        "fsync_every": DEFAULT_FSYNC_EVERY,
        "snapshot_every": DEFAULT_SNAPSHOT_EVERY,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "stripped_program_switches": flagged,
    }
    stamp.update(extra)
    return stamp


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mib_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, busy_s: float, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a tracer summary.

    ``busy_s`` is the time the traced layers could account for (the measured
    wall time in process, the server's CPU time when serving); ``extra`` holds
    the numbers that come from outside the tracer (cache and WAL counters from
    the server's ``stats`` reply, client-side wire times, overhead).
    """
    own = trace["self_time"]
    total = trace["total_time"]
    calls = trace["calls"]
    counts = trace["counts"]

    def self_s(name):
        return own.get(name, 0.0)

    def prime_inside(name):
        return total.get("delta.prime", 0.0) if counts.get("prime.inside." + name) else 0.0

    metrics = {
        "pools.replace_s": self_s("pools.replace"),
        "pools.add_s": self_s("pools.add"),
        "pools.pop_s": self_s("pools.pop"),
        "pools.candidates_s": self_s("pools.candidates"),
        "pools.complete_add_s": self_s("pools.complete_add"),
        "pools.incomplete_peak": trace["peaks"].get("incomplete", 0),
        "incremental.next_result_s": self_s("incremental.next_result"),
        "incremental.extend_s": self_s("incremental.extend"),
        "incremental.extend_calls": calls.get("incremental.extend", 0),
        "incremental.candidate_s": self_s("incremental.candidate"),
        "incremental.candidates": calls.get("incremental.candidate", 0),
        "incremental.merge_s": self_s("incremental.merge"),
        "incremental.merge_tests": calls.get("incremental.merge", 0),
        "incremental.merge_hit_ratio": ratio(
            counts.get("merge.hits", 0), calls.get("incremental.merge", 0)
        ),
        "incremental.complete_probe_s": self_s("incremental.complete_probe")
        + self_s("incremental.subset_test"),
        "incremental.complete_sets_scanned": counts.get("complete.sets_scanned", 0),
        "incremental.subsumed_ratio": ratio(
            counts.get("complete.subsumed", 0), calls.get("incremental.complete_probe", 0)
        ),
        "exec.pass_loop_s": self_s("exec.pass_loop"),
        "exec.duplicates_skipped": counts.get("incremental.loop.yields", 0)
        - counts.get("exec.pass_loop.yields", 0),
        "catalog.build_s": total.get("catalog.build", 0.0),
        "catalog_file.attach_s": total.get("catalog_file.attach", 0.0),
        "catalog.row_reads": calls.get("catalog.row_read", 0),
        "catalog.row_read_s": self_s("catalog.row_read"),
        "cache.open_s": total.get("cache.open", 0.0),
        "session.ensure_s": self_s("session.ensure"),
        "delta.ingest_s": total.get("delta.ingest", 0.0) - prime_inside("delta.ingest"),
        "delta.remove_s": total.get("delta.remove", 0.0) - prime_inside("delta.remove"),
        "delta.update_s": total.get("delta.update", 0.0) - prime_inside("delta.update"),
        "delta.prime_s": total.get("delta.prime", 0.0),
        "delta.candidates_generated": counts.get("delta.candidates", 0),
        "wal.append_s": total.get("wal.append", 0.0),
        "snapshot.write_s": total.get("snapshot.write", 0.0),
        "recovery.snapshot_load_s": total.get("recovery.snapshot_load", 0.0),
        "recovery.replay_s": total.get("recovery.replay", 0.0),
        "recovery.records_replayed": calls.get("recovery.replay", 0),
    }
    for op in KERNEL_OPS:
        metrics[f"kernels.{op}_s"] = self_s(f"kernels.{op}")
        metrics[f"kernels.{op}_calls"] = calls.get(f"kernels.{op}", 0)
    covered = sum(v for k, v in own.items() if k.startswith(LAYER_PREFIXES))
    metrics["trace.coverage"] = ratio(covered, busy_s)
    durations: Dict[str, List[float]] = {}
    for op, _, start, end, _ in trace["requests"]:
        durations.setdefault(op, []).append((end - start) * 1000.0)
    for op in SERVER_OPS:
        metrics[f"server.request_ms_p50.{op}"] = p50(durations.get(op, []))
    for name in ("server.wire_ms_p50", "cache.hit_ratio", "cache.evictions",
                 "cache.invalidated", "cache.revalidated", "session.stale_reopens",
                 "wal.records", "wal.fsyncs", "wal.bytes_per_user_byte",
                 "snapshot.count", "snapshot.bytes", "trace.overhead_ratio"):
        metrics[name] = extra.get(name, 0)
    return metrics


def emit(report: dict, names, metrics: Dict[str, float], units: Dict[str, str],
         correct: bool, attempted: int, failed: int, out_path: str) -> None:
    """Print every metric by name with its unit, save the report, print the result line."""
    for name in names:
        print(f"{name:40s} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    report["result"] = result
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(f"report written to {out_path}")
    sys.stdout.flush()
    print(json.dumps(result))
