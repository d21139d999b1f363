"""Serving configuration.

One frozen dataclass carries every knob of the micro-batching service; the
CLI maps ``repro serve`` flags onto it and docs/SERVING.md explains how the
knobs trade latency against throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for the micro-batcher, admission control, and HTTP front end.

    Parameters
    ----------
    max_batch_size:
        Upper bound on graphs coalesced into one ``Engine.predict_many``
        dispatch.  Larger amortizes more Python overhead per forward pass
        but holds early arrivals longer.
    max_wait_ms:
        Batching window: how long the oldest queued request may wait for
        the batch to fill before dispatching a partial batch.  The direct
        knob on added tail latency under light load.
    max_queue_depth:
        Admission-control bound.  A request arriving when this many are
        already queued is rejected with
        :class:`~repro.errors.QueueFullError` (HTTP 429) instead of growing
        the queue — bounded queues turn overload into fast feedback rather
        than unbounded latency collapse.
    default_deadline_ms:
        Per-request deadline applied when the request does not carry its
        own; ``None`` disables deadlines.  A request that cannot be
        answered within its deadline is shed
        (:class:`~repro.errors.DeadlineExceededError`, HTTP 504) — never
        served late.
    retry_after_s:
        Client back-off hint attached to queue-full rejections
        (the HTTP ``Retry-After`` header, rounded up to whole seconds).
    executor_workers:
        Threads in the inference executor.  The numpy forward pass releases
        the GIL inside BLAS, so a small pool (2) can overlap batches;
        1 keeps inference strictly serial.
    host, port:
        HTTP bind address; port 0 lets the OS pick (the chosen port is
        printed at startup).
    max_body_bytes:
        Largest accepted request body (HTTP 413 beyond it).
    request_timeout_s:
        Idle read timeout per HTTP connection.
    fleet_workers:
        Engine slots behind :class:`~repro.serve.service.InferenceService`.
        1 runs batches on the in-process engine; >1 starts a
        :class:`~repro.serve.supervisor.Supervisor` over that many worker
        processes with content-hash shard routing — the CLI's
        ``repro serve --workers N``.
    worker_retries:
        How many times one predict batch may be re-sent to a fresh worker
        after its worker died mid-request, before failing the batch.
    worker_start_timeout_s:
        How long a freshly spawned worker may take to answer its first
        ping before the supervisor declares the spawn failed.
    worker_request_timeout_s:
        Per-IPC-request ceiling.  A worker silent past it is presumed hung,
        killed, and the batch retried (counts against ``worker_retries``).
    health_interval_s:
        Supervisor health-check poll period for dead-worker detection.
    default_precision:
        Execution tier for requests that do not pin one via
        ``?precision=``: ``"exact"`` (float64 tape, byte-identical to the
        reference forward) or ``"fast"`` (int8-grid float32 tape).  See
        docs/RUNTIME.md.
    downgrade_queue_depth:
        Degrade-before-shed threshold: when a request *without* an
        explicit precision arrives and its queue already holds at least
        this many entries, it is served at ``"fast"`` instead of the
        default tier (counted in ``serve_precision_downgrades_total``) —
        trading bits for latency *before* admission control starts
        returning 429/504.  ``None`` (the default) auto-derives
        ``max_queue_depth // 2``; ``0`` disables downgrading.  Requests
        that pin ``?precision=exact`` are never downgraded.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 5.0
    max_queue_depth: int = 256
    default_deadline_ms: Optional[float] = 1000.0
    retry_after_s: float = 0.05
    executor_workers: int = 1
    host: str = "127.0.0.1"
    port: int = 8100
    max_body_bytes: int = 8 * 1024 * 1024
    request_timeout_s: float = 60.0
    # -- worker pool (fleet_workers > 1; the rest is ignored with 1) -------
    fleet_workers: int = 1
    worker_retries: int = 2
    worker_start_timeout_s: float = 60.0
    worker_request_timeout_s: float = 120.0
    health_interval_s: float = 0.1
    # -- precision tiering (see docs/RUNTIME.md, docs/SERVING.md) -----------
    default_precision: str = "exact"
    downgrade_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigError(
                f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ConfigError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue_depth <= 0:
            raise ConfigError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ConfigError(
                "default_deadline_ms must be positive or None, "
                f"got {self.default_deadline_ms}")
        if self.retry_after_s < 0:
            raise ConfigError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}")
        if self.executor_workers <= 0:
            raise ConfigError(
                f"executor_workers must be positive, got {self.executor_workers}")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_body_bytes <= 0:
            raise ConfigError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}")
        if self.request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}")
        if self.fleet_workers <= 0:
            raise ConfigError(
                f"fleet_workers must be positive, got {self.fleet_workers}")
        if self.worker_retries < 0:
            raise ConfigError(
                f"worker_retries must be >= 0, got {self.worker_retries}")
        if self.worker_start_timeout_s <= 0:
            raise ConfigError(
                "worker_start_timeout_s must be positive, "
                f"got {self.worker_start_timeout_s}")
        if self.worker_request_timeout_s <= 0:
            raise ConfigError(
                "worker_request_timeout_s must be positive, "
                f"got {self.worker_request_timeout_s}")
        if self.health_interval_s <= 0:
            raise ConfigError(
                f"health_interval_s must be positive, got {self.health_interval_s}")
        if self.default_precision not in ("exact", "fast"):
            raise ConfigError(
                "default_precision must be 'exact' or 'fast', "
                f"got {self.default_precision!r}")
        if (self.downgrade_queue_depth is not None
                and self.downgrade_queue_depth < 0):
            raise ConfigError(
                "downgrade_queue_depth must be >= 0 or None, "
                f"got {self.downgrade_queue_depth}")

    @property
    def effective_downgrade_depth(self) -> Optional[int]:
        """The resolved degrade-before-shed threshold (None = disabled)."""
        if self.downgrade_queue_depth is None:
            return max(1, self.max_queue_depth // 2)
        if self.downgrade_queue_depth == 0:
            return None
        return self.downgrade_queue_depth

    def with_updates(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)
