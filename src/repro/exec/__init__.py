"""Pluggable execution backends for the full-disjunction engines.

The algorithms (:mod:`repro.core`) define *what* is computed — two drivers,
incremental and priority, each under a join predicate
(:mod:`repro.core.predicate`) that makes it exact or approximate; an
:class:`~repro.exec.base.ExecutionBackend` defines *how* the work is
scheduled.  Every backend takes the predicate with each step and each pass,
so one schedule serves all four engines (exact, ranked, approximate, ranked
approximate).  Five backends ship:

``serial``
    The paper's reference execution — one ``GetNextResult`` step at a time,
    one pass after another (:class:`~repro.exec.serial.SerialBackend`).
``batched``
    The Line 7–18 candidate loop groups outside tuples by anchor bucket and
    probes the dual-indexed ``Complete`` store once per bucket
    (:class:`~repro.exec.batched.BatchedBackend`).  Exactly
    order-equivalent to serial.
``sharded``
    Anchor-bucket ranges of the passes fan out to a process pool through a
    shared work-stealing queue; results and statistics merge
    deterministically regardless of worker count or steal order
    (:class:`~repro.exec.sharded.ShardedBackend`).  Passes under a predicate
    that is not bucket-sound (the approximate one) fan out whole.  Accepts a
    worker count: ``"sharded:4"``.
``sharded-pass``
    The same pool fanning out whole per-relation passes instead of bucket
    ranges — the pre-bucket schedule, kept for comparison benchmarks and
    for workloads whose passes are already balanced.  Output order is
    identical to serial.  Accepts a worker count: ``"sharded-pass:4"``.
``async``
    Cooperative multiplexing of many query sessions' steps on one asyncio
    event loop (:class:`~repro.exec.asyncio_backend.AsyncBackend`); the
    per-step functions are the batched ones, so single-session runs are
    order-equivalent to serial and the serving layer (:mod:`repro.service`)
    gets step-granular fairness across concurrent clients.

Every engine entry point takes a ``backend`` argument resolved by
:func:`resolve_backend`, so new schedules (multi-node, GPU, …) are new
backends, not engine rewrites.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.exec.asyncio_backend import AsyncBackend
from repro.exec.base import ExecutionBackend
from repro.exec.batched import BatchedBackend, get_next_result_batched
from repro.exec.serial import SerialBackend
from repro.exec.sharded import ShardedBackend, plan_bucket_ranges, shutdown_pools

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "BatchedBackend",
    "ShardedBackend",
    "AsyncBackend",
    "get_next_result_batched",
    "plan_bucket_ranges",
    "resolve_backend",
    "shutdown_pools",
]

#: The backend names accepted by :func:`resolve_backend` (and the CLI).
BACKENDS = ("serial", "batched", "sharded", "sharded-pass", "async")

#: Anything an engine's ``backend`` argument accepts.
BackendSpec = Union[None, str, ExecutionBackend]

_DEFAULT_WORKERS = 2


def resolve_backend(
    spec: BackendSpec = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend argument to an :class:`ExecutionBackend` instance.

    ``spec`` may be ``None`` (the serial reference execution), an existing
    backend instance (returned unchanged), or a name: ``"serial"``,
    ``"batched"``, ``"sharded"``, ``"sharded-pass"``, ``"async"`` (alias
    ``"asyncio"``).  The sharded worker count can ride along as
    ``"sharded:4"`` / ``"sharded-pass:4"`` or through the ``workers``
    argument (the suffix wins).
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    name, _, suffix = str(spec).partition(":")
    if suffix:
        try:
            workers = int(suffix)
        except ValueError:
            raise ValueError(
                f"invalid worker count {suffix!r} in backend spec {spec!r}"
            ) from None
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if name in ("sharded", "sharded-pass"):
        return ShardedBackend(
            max_workers=_DEFAULT_WORKERS if workers is None else workers,
            granularity="pass" if name == "sharded-pass" else "bucket",
        )
    if workers is not None:
        # A worker count on a single-process backend would be a silent no-op;
        # make the misconfiguration visible instead.
        raise ValueError(
            f"backend {name!r} runs in-process and takes no worker count"
        )
    if name == "serial":
        return SerialBackend()
    if name == "batched":
        return BatchedBackend()
    if name in ("async", "asyncio"):
        return AsyncBackend()
    raise ValueError(
        f"unknown execution backend {name!r}; expected one of {BACKENDS}"
    )
