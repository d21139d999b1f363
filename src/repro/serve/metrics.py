"""Observability core for the inference service.

Three thread-safe primitives — :class:`Counter`, :class:`Gauge`, and a
streaming bucketed :class:`Histogram` with quantile estimation — collected
in a :class:`MetricsRegistry` that renders the Prometheus text exposition
format for ``GET /metrics``.

Design constraints:

* **Streaming.** The service is long-lived; per-request samples cannot be
  retained.  Histograms keep fixed cumulative buckets plus sum/count, the
  exact representation Prometheus scrapes, and estimate p50/p95/p99 by
  linear interpolation inside the owning bucket (the same estimate
  ``histogram_quantile`` computes server-side).
* **Thread-safe.** The asyncio front end observes from the event loop while
  the inference executor observes from worker threads; every mutation takes
  the metric's lock.
* **Pull-based gauges.** A :class:`Gauge` may wrap a callback so values
  owned elsewhere (queue depth, :class:`~repro.runtime.engine.EngineStats`
  counters) are read at scrape time instead of being pushed on every
  change; :func:`bind_engine_stats` uses this to export an Engine's
  cumulative stats through the same registry.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError

#: Default latency bucket upper bounds, in seconds (Prometheus convention).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default batch-size bucket upper bounds (powers of two up to 256).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ServeError(f"invalid metric name: {name!r}")
    return name


def _labeled_name(name: str, labels: Optional[Dict[str, str]]) -> str:
    """``name{k="v",...}`` in sorted label order; plain ``name`` unlabeled.

    The Prometheus child-series form — the fleet uses it for per-worker
    samples (``serve_worker_up{worker="2"}``) while the registry still
    emits one HELP/TYPE header per family.
    """
    if not labels:
        return name
    rendered = ",".join(
        f'{_check_name(k)}="{v}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self.sample_name = _labeled_name(self.name, labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ServeError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.sample_name, self.value)]


class Gauge:
    """Point-in-time value: settable, or pulled from a callback at scrape."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self.sample_name = _labeled_name(self.name, labels)
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ServeError(f"gauge {self.name} is callback-backed")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ServeError(f"gauge {self.name} is callback-backed")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def bind(self, fn: Optional[Callable[[], float]]) -> None:
        """Switch this gauge to (or away from) callback-backed reads."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.sample_name, self.value)]


class Histogram:
    """Streaming bucketed histogram with Prometheus-style quantiles.

    ``buckets`` are finite upper bounds in ascending order; a ``+Inf``
    bucket is implicit.  ``observe`` is O(log buckets); memory is O(buckets)
    regardless of traffic volume.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ServeError(
                f"histogram {name}: buckets must be finite and "
                f"strictly ascending, got {bounds}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1), interpolated in-bucket.

        Returns 0.0 with no observations.  Values landing in the ``+Inf``
        bucket clamp to the largest finite bound — the estimate is a lower
        bound there, exactly like PromQL's ``histogram_quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ServeError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for pos, bucket_count in enumerate(counts):
            prev_cumulative = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if pos >= len(self.bounds):  # +Inf bucket: clamp
                    return self.bounds[-1]
                lower = self.bounds[pos - 1] if pos > 0 else 0.0
                upper = self.bounds[pos]
                fraction = (rank - prev_cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.bounds[-1]

    def percentiles(self) -> Dict[str, float]:
        """The standard latency summary: p50 / p95 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def samples(self) -> List[Tuple[str, float]]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            value_sum = self._sum
        out: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            out.append((f'{self.name}_bucket{{le="{_format(bound)}"}}',
                        float(cumulative)))
        out.append((f'{self.name}_bucket{{le="+Inf"}}', float(total)))
        out.append((f"{self.name}_sum", value_sum))
        out.append((f"{self.name}_count", float(total)))
        return out


def _format(value: float) -> str:
    """Render a bucket bound the way Prometheus clients do (no trailing .0
    noise for integral bounds)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named metrics with get-or-create accessors and text exposition.

    Metrics are keyed by their full child-series name — a labeled counter
    (``serve_worker_up{worker="2"}``) registers one child per label set
    under a shared *family* (base name), and ``render`` emits HELP/TYPE
    once per family followed by every child's samples.  All children of a
    family must share one metric type.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, cls, name: str, help_text: str,
        labels: Optional[Dict[str, str]] = None, **kwargs
    ):
        key = _labeled_name(_check_name(name), labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ServeError(
                        f"metric {key} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            for other in self._metrics.values():
                if other.name == name and not isinstance(other, cls):
                    raise ServeError(
                        f"metric family {name} already registered as "
                        f"{type(other).__name__}"
                    )
            if labels is not None and cls is not Histogram:
                kwargs["labels"] = labels
            metric = cls(name, help_text, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels=labels)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        fn: Optional[Callable[[], float]] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels=labels, fn=fn)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str):
        """Lookup by full child-series name (plain name when unlabeled)."""
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            # group every family's children together even when an unrelated
            # name would sort between a family's plain and labeled series
            metrics = sorted(
                self._metrics.items(), key=lambda kv: (kv[1].name, kv[0])
            )
        emitted_families = set()
        for _, metric in metrics:
            if metric.name not in emitted_families:
                emitted_families.add(metric.name)
                if metric.help_text:
                    lines.append(f"# HELP {metric.name} {metric.help_text}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {_render_value(value)}")
        return "\n".join(lines) + "\n"


def _render_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class ServeMetrics:
    """The service's standard metric set, bound to one registry.

    One instance per :class:`~repro.serve.service.InferenceService`; the
    batcher and HTTP front end record into it, ``GET /metrics`` renders it.
    See docs/SERVING.md for the catalog.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "serve_requests_total", "Classification requests admitted")
        self.responses = r.counter(
            "serve_responses_total", "Requests answered with a label")
        self.shed_queue_full = r.counter(
            "serve_shed_queue_full_total",
            "Requests rejected at admission: queue at capacity (HTTP 429)")
        self.shed_deadline = r.counter(
            "serve_shed_deadline_total",
            "Requests shed because their deadline expired (HTTP 504)")
        self.errors = r.counter(
            "serve_errors_total", "Requests failed by an internal error")
        self.bad_requests = r.counter(
            "serve_bad_requests_total", "Malformed payloads (HTTP 400)")
        self.invalid_graphs = r.counter(
            "serve_invalid_graphs_total",
            "Decodable payloads whose graph failed structural lint (HTTP 422)")
        self.queue_wait = r.histogram(
            "serve_queue_wait_seconds",
            "Time from admission to batch dispatch")
        self.batch_size = r.histogram(
            "serve_batch_size",
            "Graphs per dispatched micro-batch",
            buckets=BATCH_SIZE_BUCKETS)
        self.inference = r.histogram(
            "serve_inference_seconds",
            "Engine.predict_many wall time per micro-batch")
        self.e2e = r.histogram(
            "serve_request_seconds",
            "End-to-end latency of served requests")
        self.queue_depth = r.gauge(
            "serve_queue_depth", "Requests currently queued")
        self.inflight_batches = r.gauge(
            "serve_inflight_batches", "Micro-batches currently in the engine")
        self.downgrades = r.counter(
            "serve_precision_downgrades_total",
            "Requests downgraded to the fast tier by queue pressure")
        self.advise_requests = r.counter(
            "serve_advise_requests_total",
            "Advice requests admitted (POST /v1/advise)")
        self.advise_validated = r.counter(
            "serve_advise_validated_total",
            "Advice responses whose plan was execution-validated")
        # pre-register both tier series at zero so dashboards see the
        # family before the first request of either precision lands
        for tier in ("exact", "fast"):
            self.precision_requests(tier)

    def precision_requests(self, precision: str) -> Counter:
        """Per-tier admitted-request counter (label: effective precision)."""
        return self.registry.counter(
            "serve_precision_requests_total",
            "Classification requests per effective execution tier",
            labels={"precision": str(precision)})

    def bind_queue_depth(self, fn: Callable[[], float]) -> None:
        """Make queue depth a pull gauge over the live queue."""
        self.queue_depth.bind(fn)


class FleetMetrics:
    """Per-worker / per-shard metric families for the multi-process fleet.

    One instance per :class:`~repro.serve.service.InferenceService` with a
    worker pool (none in process); the supervisor records lifecycle events,
    the shard router records routing decisions.  Children are created lazily per worker slot / shard index
    (label values are slot indices, stable across respawns — a respawned
    worker keeps its slot's series, which is what makes
    ``serve_worker_restarts_total`` meaningful).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.fleet_size = self.registry.gauge(
            "serve_fleet_size", "Configured engine worker processes")
        self.reloads = self.registry.counter(
            "serve_worker_reloads_total",
            "Completed rolling reload/restart sweeps across the fleet")
        self.retried_batches = self.registry.counter(
            "serve_worker_retried_batches_total",
            "Predict batches re-sent after a worker died mid-request")

    def worker_up(self, slot: int) -> Gauge:
        return self.registry.gauge(
            "serve_worker_up",
            "1 while the slot's engine worker process is live",
            labels={"worker": str(slot)})

    def worker_restarts(self, slot: int) -> Counter:
        return self.registry.counter(
            "serve_worker_restarts_total",
            "Times the slot's worker was respawned after dying",
            labels={"worker": str(slot)})

    def shard_requests(self, shard: int) -> Counter:
        return self.registry.counter(
            "serve_shard_requests_total",
            "Requests routed to the shard by graph content hash",
            labels={"shard": str(shard)})


def bind_engine_stats(registry: MetricsRegistry, engine) -> None:
    """Export an Engine's cumulative :class:`EngineStats` as pull gauges.

    The stats object stays the single source of truth (the CLI keeps
    printing ``engine.stats.summary()``); the registry reads it at scrape
    time so ``GET /metrics`` and the summary can never disagree.
    """
    stats = engine.stats
    for attr, help_text in (
        ("graphs", "Graphs classified by the engine since startup"),
        ("batches", "Forward-pass batches executed by the engine"),
        ("seconds", "Cumulative engine wall time in predict/logits calls"),
    ):
        registry.gauge(
            f"engine_{attr}", help_text,
            fn=(lambda a=attr: float(getattr(stats, a))),
        )
