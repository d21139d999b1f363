"""Async micro-batching inference service over one engine or a worker pool.

The serving layer over :mod:`repro.runtime`: a long-lived asyncio front
end that coalesces concurrent loop-classification requests into engine
batches (:class:`MicroBatcher`), rejects overload explicitly instead of
queueing unboundedly (:class:`~repro.errors.QueueFullError` /
:class:`~repro.errors.DeadlineExceededError`), and exposes a stdlib-only
HTTP API (:class:`HttpServer`) with Prometheus metrics
(:mod:`repro.serve.metrics`).

One :class:`InferenceService` runs every request path (admission,
precision tiers, advice, the 400/422 gate) over either backend, chosen by
``ServeConfig.fleet_workers``:

* **1 slot** — batches run on the in-process engine;
* **N > 1 slots** — a :class:`Supervisor` pre-forks N engine worker
  processes, requests route to per-worker shards by content hash
  (:func:`content_shard`; each worker's FeatureCache stays hot on its
  shard), dead workers respawn with the lost batch retried invisibly, and
  rolling restart / hot weight reload swap workers blue-green with zero
  dropped requests.

Start one from the command line with ``python -m repro serve``
(``--workers N`` for a worker pool); see docs/SERVING.md for the API
reference and tuning guide, docs/OPERATIONS.md for the worker-pool
runbook.
"""

from repro.serve.batcher import USE_DEFAULT, MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.http import HttpServer, serve_forever
from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    FleetMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServeMetrics,
    bind_engine_stats,
)
from repro.serve.service import (
    InferenceService,
    content_shard,
    resolve_precision,
)
from repro.serve.supervisor import Supervisor, WorkerHandle, WorkerPayload

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "FleetMetrics",
    "Gauge",
    "Histogram",
    "HttpServer",
    "InferenceService",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MicroBatcher",
    "ServeConfig",
    "ServeMetrics",
    "Supervisor",
    "USE_DEFAULT",
    "WorkerHandle",
    "WorkerPayload",
    "bind_engine_stats",
    "content_shard",
    "resolve_precision",
    "serve_forever",
]
