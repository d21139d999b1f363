"""The inference service: one request path over one engine or a worker pool.

:class:`InferenceService` is the transport-independent core of
``repro.serve`` — the HTTP front end (:mod:`repro.serve.http`), the load
generator (``benchmarks/bench_serve_latency.py``), and the tests all speak
to this layer.  Every admitted request is decoded and gated (400/422) at
the front end, resolved to an execution tier, and submitted to one
:class:`~repro.serve.batcher.MicroBatcher` per *(slot, tier)*: ``exact``
and ``fast`` requests are never coalesced into one tape (they execute
different tapes with different numerics, and a mixed batch would silently
cross-contaminate the tiers).

Where a batch runs follows ``config.fleet_workers``:

* **1 slot** — in process, on the service's own
  :class:`~repro.runtime.engine.Engine` (``Engine.predict_many`` inside the
  batcher's thread executor); the engine's statistics export through
  :func:`~repro.serve.metrics.bind_engine_stats`.
* **N > 1 slots** — a :class:`~repro.serve.supervisor.Supervisor` owns N
  engine worker processes.  Each graph routes to a slot by a content hash
  of its feature arrays (:func:`content_shard`), so every worker's
  FeatureCache stays hot on its shard of the keyspace; a batch lost to a
  dying worker is retried invisibly on its replacement, and
  :meth:`~InferenceService.reload` / :meth:`~InferenceService.restart`
  roll every worker blue-green with zero dropped requests.

Precision policy (:func:`resolve_precision`): a request that pins
``?precision=exact|fast`` gets exactly that tier — pinned ``exact`` is
*never* downgraded.  A request with no preference gets
``config.default_precision``, unless the default-tier queues (summed over
all slots) already hold ``config.effective_downgrade_depth`` entries —
then it degrades to ``fast`` (before admission control starts shedding
with 429/504), counted in ``serve_precision_downgrades_total``.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError, WireError
from repro.runtime.engine import Engine, GraphInput
from repro.serve import wire
from repro.serve.batcher import USE_DEFAULT, MicroBatcher
from repro.serve.config import ServeConfig
from repro.serve.metrics import (
    FleetMetrics,
    MetricsRegistry,
    ServeMetrics,
    bind_engine_stats,
)
from repro.serve.supervisor import Supervisor, WorkerPayload


def content_shard(graph: GraphInput, n_shards: int) -> int:
    """Stable shard index in ``[0, n_shards)`` from the graph's content.

    Hashes the raw bytes of all three feature arrays (shape-prefixed, so
    reshapes change the key the way they change the features), mirroring
    the content-keyed FeatureCache: identical inputs always route to the
    same worker, which is what keeps that worker's cache hot on its shard.
    """
    digest = hashlib.sha256()
    for array in (graph.x_semantic, graph.x_structural, graph.adjacency):
        contiguous = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(str(contiguous.shape).encode())
        digest.update(contiguous.tobytes())
    return int.from_bytes(digest.digest()[:8], "big") % n_shards


def resolve_precision(
    requested: Optional[str], config: ServeConfig, queue_depth: int
) -> Tuple[str, bool]:
    """(effective tier, downgraded?) for one admitted request.

    ``requested`` is the client's pinned tier (``None`` = no preference).
    ``queue_depth`` is the current depth of the queues the request would
    join at the default tier — the degrade-before-shed signal.
    """
    if requested is not None:
        return requested, False  # pinned: exact is never downgraded
    default = config.default_precision
    threshold = config.effective_downgrade_depth
    if (
        default != "fast"
        and threshold is not None
        and queue_depth >= threshold
    ):
        return "fast", True
    return default, False


class InferenceService:
    """Long-lived classification service over one Engine or N workers.

    Parameters
    ----------
    engine:
        The (thread-safe) batched inference engine.  With one slot its
        ``predict_many`` serves every batch; with more, its model and
        execution settings are shipped to every worker
        (:class:`~repro.serve.supervisor.WorkerPayload`), and its model
        remains the master copy that :meth:`reload` pushes back out.
    config:
        Batching / admission / HTTP / precision knobs;
        ``config.fleet_workers`` fixes the slot count.
    registry:
        Metrics destination, shared with the front end; fresh when omitted.
    examples:
        Optional pool of :class:`~repro.dataset.types.LoopSample` served by
        ``example_payload`` (the ``GET /v1/example`` endpoint) so clients
        can fetch a valid request shape without knowing the model dims.
    advisor_plans:
        Wire-form advice plans keyed by loop id / sample id, served by
        :meth:`advise`; ``None`` leaves the advisor endpoint disabled (409).
    """

    def __init__(
        self,
        engine: Engine,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        examples: Optional[Sequence[Any]] = None,
        advisor_plans: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.engine = engine
        self.advisor_plans = (
            dict(advisor_plans) if advisor_plans is not None else None
        )
        self.config = config if config is not None else ServeConfig()
        self.n_workers = self.config.fleet_workers
        self.metrics = ServeMetrics(registry)
        self.fleet_metrics: Optional[FleetMetrics] = None
        self.supervisor: Optional[Supervisor] = None
        if self.n_workers > 1:
            self.fleet_metrics = FleetMetrics(self.metrics.registry)
            self.supervisor = Supervisor(
                WorkerPayload.from_engine(engine), self.config,
                metrics=self.fleet_metrics,
            )
            # bound (and registered at zero) once: a registry lookup
            # validates the name and renders labels under a lock
            self._shard_requests = [
                self.fleet_metrics.shard_requests(shard)
                for shard in range(self.n_workers)
            ]
        else:
            bind_engine_stats(self.metrics.registry, engine)
        # the shared ServeMetrics aggregates admission/latency over slots
        self.batchers: Dict[Tuple[int, str], MicroBatcher] = {
            (slot, tier): MicroBatcher(
                self._predict_fn(slot, tier), self.config,
                metrics=self.metrics,
            )
            for slot in range(self.n_workers)
            for tier in wire.PRECISIONS
        }
        self._tier_requests = {
            tier: self.metrics.precision_requests(tier)
            for tier in wire.PRECISIONS
        }
        # each MicroBatcher bound the shared depth gauge in its ctor
        # (last one wins); re-bind it to the sum across batchers
        self.metrics.bind_queue_depth(self._queue_depth)
        self._examples = list(examples) if examples else []
        self._example_cursor = 0
        self._started_at: Optional[float] = None
        self._admin_lock = asyncio.Lock()

    def _predict_fn(
        self, slot: int, precision: str
    ) -> Callable[[Sequence[Any]], List[int]]:
        """Executor-side hop into the slot's engine at one pinned tier."""
        if self.supervisor is not None:
            supervisor = self.supervisor
            return lambda items: supervisor.predict(
                slot, items, precision=precision
            )
        engine = self.engine
        return lambda items: [
            int(label) for label in engine.predict_many(
                items, batch_size=len(items), precision=precision
            )
        ]

    def _queue_depth(self) -> int:
        return sum(b.queue_depth for b in self.batchers.values())

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self.supervisor is not None:
            # spawning + warm pings block; keep the event loop responsive
            await asyncio.get_running_loop().run_in_executor(
                None, self.supervisor.start
            )
        for batcher in self.batchers.values():
            await batcher.start()
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        for batcher in self.batchers.values():
            await batcher.stop()
        if self.supervisor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.supervisor.stop
            )

    @property
    def running(self) -> bool:
        pool_up = self.supervisor is None or self.supervisor.running
        return pool_up and all(b.running for b in self.batchers.values())

    # -- admission and routing -----------------------------------------------

    def _resolve(self, requested: Optional[str]) -> str:
        """Effective tier for one request, metrics recorded.

        The degrade-before-shed signal is the default-tier queue depth
        summed over slots — per-slot depths swing with routing luck; the
        aggregate is the pressure that precedes shedding.
        """
        default = self.config.default_precision
        default_depth = sum(
            self.batchers[(slot, default)].queue_depth
            for slot in range(self.n_workers)
        )
        tier, downgraded = resolve_precision(
            requested, self.config, default_depth
        )
        self._tier_requests[tier].inc()
        if downgraded:
            self.metrics.downgrades.inc()
        return tier

    def _admit(
        self, payload: Any, precision: Optional[str], decode: Callable
    ) -> Tuple[Any, str, Any]:
        """The admission preamble every endpoint shares.

        Checks the body is an object, reads the precision pin (the
        transport-level ``precision`` wins over a ``"precision"`` body
        field) and the deadline, runs ``decode`` (the 400/422 gate — before
        any slot is chosen), then resolves the tier.  Returns
        ``(decoded, tier, deadline_ms)``.
        """
        if not isinstance(payload, Mapping):
            raise WireError(
                f"request: expected a JSON object, got {type(payload).__name__}"
            )
        if precision is None:
            precision = wire.decode_precision(payload.get("precision"))
        deadline_ms = wire.decode_deadline_ms(payload, default=USE_DEFAULT)
        decoded = decode(payload)
        return decoded, self._resolve(precision), deadline_ms

    def _submit(self, graph: GraphInput, tier: str, deadline_ms: Any):
        """Queue one graph on its slot's batcher at a resolved tier."""
        slot = 0
        if self.supervisor is not None:
            slot = content_shard(graph, self.n_workers)
            self._shard_requests[slot].inc()
        return self.batchers[(slot, tier)].submit(
            graph, deadline_ms=deadline_ms
        )

    async def submit_graph(
        self,
        graph: GraphInput,
        deadline_ms: Any = USE_DEFAULT,
        precision: Optional[str] = None,
    ) -> int:
        """Submit one decoded graph and await its label (no JSON involved).

        The entry point for load generators that skip the wire codec.
        ``precision`` is the request's pinned tier (``None`` applies the
        default tier + downgrade policy).
        """
        return await self._submit(graph, self._resolve(precision), deadline_ms)

    # -- endpoints -----------------------------------------------------------

    async def classify(
        self, payload: Any, precision: Optional[str] = None
    ) -> Dict[str, Any]:
        """One loop object -> ``{"id", "label", "precision"}``.

        ``precision`` is the transport-level pin (the ``?precision=``
        query parameter); a ``"precision"`` field in the body works too
        (the query parameter wins).  Raises WireError / QueueFullError /
        DeadlineExceededError / ServeError; the transport maps them to
        status codes.
        """
        graph, tier, deadline_ms = self._admit(
            payload, precision, wire.decode_loop
        )
        label = await self._submit(graph, tier, deadline_ms)
        return {"id": graph.graph_id, "label": label, "precision": tier}

    async def advise(
        self, payload: Any, precision: Optional[str] = None
    ) -> Dict[str, Any]:
        """One loop object -> its classification plus the stored advice plan.

        Same admission path as :meth:`classify`; the response adds a
        ``"plan"`` field carrying the wire-form
        :class:`~repro.advisor.plan.AdvicePlan` for the loop, or ``None``
        when no plan is stored under its id.
        """
        graph, tier, deadline_ms = self._admit(
            payload, precision, wire.decode_loop
        )
        self.metrics.advise_requests.inc()
        label = await self._submit(graph, tier, deadline_ms)
        plan = (self.advisor_plans or {}).get(graph.graph_id)
        if plan is not None and (
            plan.get("validation", {}).get("status") == "validated"
        ):
            self.metrics.advise_validated.inc()
        return {
            "id": graph.graph_id, "label": label,
            "precision": tier, "plan": plan,
        }

    async def classify_batch(
        self, payload: Any, precision: Optional[str] = None
    ) -> Dict[str, Any]:
        """``{"loops": [...]}`` -> per-loop results, individually batched.

        Each loop is submitted like a single request, so one large client
        batch and many small clients coalesce identically (within one
        execution tier; the whole request resolves to one tier).  The gate
        is all-or-nothing; per-item failures after it (shed, deadline) are
        reported in place: ``{"results": [...], "precision": tier}``.
        """
        graphs, tier, deadline_ms = self._admit(
            payload, precision, wire.decode_batch
        )
        outcomes = await asyncio.gather(
            *(self._submit(graph, tier, deadline_ms) for graph in graphs),
            return_exceptions=True,
        )
        results: List[Dict[str, Any]] = []
        for graph, outcome in zip(graphs, outcomes):
            if isinstance(outcome, ServeError):
                results.append({
                    "id": graph.graph_id,
                    "error": str(outcome),
                    "status": _status_for(outcome),
                })
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                results.append({"id": graph.graph_id, "label": outcome})
        return {"results": results, "precision": tier}

    def example_payload(self) -> Dict[str, Any]:
        """A valid classify request built from the example pool (rotating)."""
        if not self._examples:
            raise WireError("no example pool configured on this server")
        sample = self._examples[self._example_cursor % len(self._examples)]
        self._example_cursor += 1
        return wire.sample_to_wire(sample)

    def health(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        health: Dict[str, Any] = {
            "status": "ok" if self.running else "stopped",
            "model": type(self.engine.model).__name__,
        }
        if self.supervisor is not None:
            health["mode"] = "fleet"
        health.update({
            "uptime_s": round(uptime, 3),
            "queue_depth": self._queue_depth(),
            "max_batch_size": self.config.max_batch_size,
            "max_wait_ms": self.config.max_wait_ms,
            "default_precision": self.config.default_precision,
            "requests_total": int(self.metrics.requests.value),
            "responses_total": int(self.metrics.responses.value),
        })
        if self.supervisor is not None:
            health["fleet_size"] = self.n_workers
            health["workers"] = self.supervisor.describe()
        return health

    def metrics_text(self) -> str:
        return self.metrics.registry.render()

    # -- worker pool administration (N > 1 slots) ----------------------------

    async def reload(self, checkpoint: Optional[str] = None) -> Dict[str, Any]:
        """Rolling blue-green reload of every worker; zero dropped requests.

        With ``checkpoint`` (an npz path from
        :func:`repro.nn.serialize.save_params`) the master model first
        loads those weights, then every replacement worker is warmed with
        them before being swapped in.  Without, the current master weights
        are pushed — which doubles as a plain hot restart with a weight
        refresh.  Serialized: concurrent reload requests queue.  Needs a
        worker pool (``supervisor`` is ``None`` with one slot).
        """
        async with self._admin_lock:
            def run() -> Dict[str, Any]:
                if checkpoint is not None:
                    from repro.nn.serialize import load_params

                    try:
                        load_params(self.engine.model, checkpoint)
                    except (OSError, ValueError) as exc:
                        raise ServeError(
                            f"cannot load checkpoint {checkpoint!r}: {exc}"
                        ) from exc
                return self.supervisor.reload_weights(self.engine.model)

            result = await asyncio.get_running_loop().run_in_executor(
                None, run
            )
            result["checkpoint"] = checkpoint
            return result

    async def restart(self) -> Dict[str, Any]:
        """Rolling restart without touching weights (fresh worker caches)."""
        async with self._admin_lock:
            return await asyncio.get_running_loop().run_in_executor(
                None, self.supervisor.rolling_restart
            )


def _status_for(exc: ServeError) -> int:
    """HTTP status for a typed serve error (shared with the front end)."""
    from repro.errors import (
        DeadlineExceededError,
        GraphValidationError,
        QueueFullError,
    )

    if isinstance(exc, GraphValidationError):
        return 422
    if isinstance(exc, WireError):
        return 400
    if isinstance(exc, QueueFullError):
        return 429
    if isinstance(exc, DeadlineExceededError):
        return 504
    return 500
