"""Pre-forked engine worker processes and the supervisor that keeps them up.

The worker-pool backend of :class:`~repro.serve.service.InferenceService`
(``fleet_workers`` > 1): each worker slot holds one OS process running
:func:`worker_main` — a serial loop over a duplex pipe that builds its *own*
:class:`~repro.runtime.engine.Engine` (own FeatureCache, own GIL) and
answers framed predict/ping/reload/stats/shutdown requests
(:mod:`repro.serve.wire`, "worker IPC protocol").

The :class:`Supervisor` reuses the process-pool hardening idioms of
:mod:`repro.dataset.parallel` in long-lived form:

* **startup timeout** — a spawned worker must answer its first ping within
  ``worker_start_timeout_s`` or the spawn is declared failed;
* **request timeout + liveness polling** — the supervisor-side
  :class:`WorkerHandle` waits for replies in short poll slices, checking
  the process between slices, so a SIGKILLed worker is detected even when
  pipe EOF never arrives (a sibling forked later may hold a copy of the
  write end — the classic inherited-fd hazard);
* **bounded retries** — :meth:`Supervisor.predict` re-sends a batch to the
  slot's replacement worker up to ``worker_retries`` times
  (the BrokenProcessPool-requeue analogue) before failing it;
* **dead-worker respawn** — a monitor thread polls worker liveness every
  ``health_interval_s`` and respawns dead slots; the predict path also
  triggers an immediate respawn on failure so retries do not wait out the
  poll period.

Rolling restart / hot weight reload is blue-green per slot: spawn the
replacement, warm it (optionally loading new weights first), atomically
swap it into the routing slot, then ask the old worker to drain and exit.
In-flight requests on the old worker complete — its loop is serial, so the
shutdown frame queues behind them — which is what makes a whole-fleet
reload observable as zero dropped requests.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ServeError, WireError, WorkerExitedError
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.metrics import FleetMetrics

#: poll slice while waiting on a worker reply — short enough that a killed
#: worker is noticed promptly, long enough to stay off the scheduler's back
_POLL_SLICE_S = 0.05


@dataclass
class WorkerPayload:
    """Everything a worker needs to build its own Engine after fork/spawn.

    Deliberately *not* an Engine: the engine holds locks and a live
    FeatureCache, neither of which should cross a process boundary.  Every
    worker builds a fresh engine (fresh per-shard cache) from the shared
    model.
    """

    model: Any
    batch_size: int = 32
    compile: bool = True
    precision: str = "exact"
    calibration: Any = None  # Optional[repro.nn.quantize.Calibration]

    @classmethod
    def from_engine(cls, engine) -> "WorkerPayload":
        return cls(
            model=engine.model,
            batch_size=engine.batch_size,
            compile=getattr(engine, "compile", True),
            precision=getattr(engine, "precision", "exact"),
            calibration=getattr(engine, "calibration", None),
        )

    def build_engine(self):
        from repro.runtime.engine import Engine

        return Engine(
            self.model,
            batch_size=self.batch_size,
            compile=self.compile,
            precision=self.precision,
            calibration=self.calibration,
        )


def _apply_weights(model, weights: Dict[str, Any]) -> None:
    """Load a ``{name: ndarray}`` checkpoint into ``model`` in place.

    Same mismatch contract as :func:`repro.nn.serialize.load_params`, but
    over an in-memory dict (the reload frame's payload).
    """
    named = model.named_parameters()
    missing = set(named) - set(weights)
    extra = set(weights) - set(named)
    if missing or extra:
        raise ServeError(
            f"weight reload mismatch: missing={sorted(missing)} "
            f"unexpected={sorted(extra)}"
        )
    for name, param in named.items():
        data = weights[name]
        if data.shape != param.data.shape:
            raise ServeError(
                f"weight reload shape mismatch for {name}: "
                f"{data.shape} vs {param.data.shape}"
            )
        param.data[...] = data


def worker_main(conn, slot: int, generation: int, payload: WorkerPayload) -> None:
    """One engine worker: serial frame loop until shutdown or pipe EOF.

    Runs as a child process's target.  SIGINT is ignored so a Ctrl-C against
    the foreground process group cannot take workers down mid-batch — the
    supervisor drains them with shutdown frames instead.  SIGTERM is reset
    to the default disposition (a fork may have inherited the supervisor's
    own handler): a worker targeted directly just dies and is respawned,
    and the interpreter's process-cleanup ``terminate()`` at supervisor
    exit still works as a last-resort backstop.
    """
    import signal as _signal

    try:
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass

    engine = payload.build_engine()
    try:
        # record the forward tapes (full batch + single graph) before the
        # worker reports ready, so first requests never pay tracing latency
        engine.warm_up()
    except Exception:  # pragma: no cover - defensive: serve uncompiled
        engine.compile = False

    def info() -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "slot": slot,
            "generation": generation,
            "graphs": engine.stats.graphs,
            "batches": engine.stats.batches,
        }

    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break  # supervisor went away: nothing left to serve
        try:
            kind, req_id, body = wire.check_frame(frame, wire.IPC_REQUEST_KINDS)
        except WireError as exc:
            try:
                conn.send(wire.make_frame(wire.IPC_ERR, -1, str(exc)))
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            if kind == wire.IPC_PREDICT:
                # {"items": [...], "precision": tier or None (default)}
                if not isinstance(body, dict) or "items" not in body:
                    raise WireError(
                        "predict: expected an {'items', 'precision'} body"
                    )
                items, precision = body["items"], body.get("precision")
                labels = [
                    int(label)
                    for label in engine.predict_many(
                        items, batch_size=max(1, len(items)),
                        precision=precision,
                    )
                ]
                reply = wire.make_frame(wire.IPC_OK, req_id, labels)
            elif kind == wire.IPC_PING:
                reply = wire.make_frame(wire.IPC_OK, req_id, info())
            elif kind == wire.IPC_RELOAD:
                _apply_weights(engine.model, body)
                # baked int8 weights in fast tapes are now stale
                engine.reset_fast_tapes()
                reply = wire.make_frame(wire.IPC_OK, req_id, info())
            elif kind == wire.IPC_STATS:
                stats = engine.stats
                reply = wire.make_frame(wire.IPC_OK, req_id, {
                    "graphs": stats.graphs,
                    "batches": stats.batches,
                    "seconds": stats.seconds,
                })
            else:  # shutdown
                reply = wire.make_frame(wire.IPC_OK, req_id, None)
        except Exception as exc:  # noqa: BLE001 - reported, worker keeps serving
            reply = wire.make_frame(
                wire.IPC_ERR, req_id, f"{type(exc).__name__}: {exc}"
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if kind == wire.IPC_SHUTDOWN:
            break
    conn.close()


class WorkerHandle:
    """Supervisor-side endpoint of one live worker process.

    ``request`` is synchronous and serialized by a per-handle lock — each
    shard's MicroBatcher dispatches one batch at a time from an executor
    thread, so there is never useful concurrency to exploit on one pipe,
    and serialization is what lets a blue-green swap drain the old worker
    by simply queueing a shutdown frame behind the in-flight request.
    """

    def __init__(self, slot: int, generation: int, process, conn) -> None:
        self.slot = slot
        self.generation = generation
        self.process = process
        self.conn = conn
        self._lock = threading.Lock()
        self._req_ids = itertools.count()
        self._broken = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return not self._broken and self.process.is_alive()

    def request(self, kind: str, payload: Any = None,
                timeout: Optional[float] = None) -> Any:
        """One round-trip -> the reply payload.

        Raises :class:`WorkerExitedError` when the worker dies, the pipe
        breaks, or ``timeout`` elapses (the worker is presumed hung and is
        killed so its slot can be respawned); :class:`ServeError` when the
        worker answered with an application-level error.
        """
        with self._lock:
            if self._broken:
                raise WorkerExitedError(
                    f"worker {self.slot}#{self.generation} already failed"
                )
            req_id = next(self._req_ids)
            try:
                self.conn.send(wire.make_frame(kind, req_id, payload))
            except (BrokenPipeError, OSError) as exc:
                self._mark_broken()
                raise WorkerExitedError(
                    f"worker {self.slot}#{self.generation} pipe closed: {exc}"
                ) from None
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while True:
                remaining = (
                    deadline - time.monotonic() if deadline is not None
                    else _POLL_SLICE_S
                )
                if deadline is not None and remaining <= 0:
                    self._mark_broken(kill=True)
                    raise WorkerExitedError(
                        f"worker {self.slot}#{self.generation} silent for "
                        f"{timeout:g}s on {kind!r}; killed"
                    )
                try:
                    ready = self.conn.poll(min(remaining, _POLL_SLICE_S))
                except (BrokenPipeError, OSError):
                    ready = False
                if not ready:
                    if not self.process.is_alive():
                        # EOF may never arrive when a later-forked sibling
                        # inherited our write end; the sentinel is truth
                        self._mark_broken()
                        raise WorkerExitedError(
                            f"worker {self.slot}#{self.generation} "
                            f"(pid {self.pid}) died mid-{kind}"
                        )
                    continue
                try:
                    frame = self.conn.recv()
                except (EOFError, OSError) as exc:
                    self._mark_broken()
                    raise WorkerExitedError(
                        f"worker {self.slot}#{self.generation} pipe EOF: {exc}"
                    ) from None
                reply_kind, reply_id, body = wire.check_frame(
                    frame, wire.IPC_REPLY_KINDS
                )
                if reply_id != req_id:
                    continue  # stale reply from a timed-out predecessor
                if reply_kind == wire.IPC_ERR:
                    raise ServeError(
                        f"worker {self.slot}#{self.generation}: {body}"
                    )
                return body

    def _mark_broken(self, kill: bool = False) -> None:
        self._broken = True
        if kill and self.process.is_alive():
            try:
                self.process.kill()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful drain: queue a shutdown frame, join, escalate to kill."""
        try:
            self.request(wire.IPC_SHUTDOWN, timeout=timeout)
        except (ServeError, WorkerExitedError):
            pass  # already gone or wedged: escalate below
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - platform dependent
            pass


class Supervisor:
    """N worker slots, health-checked, respawned, and swappable in place.

    Parameters
    ----------
    payload:
        :class:`WorkerPayload` shipped to every spawned worker.
    config:
        Fleet knobs (``fleet_workers``, timeouts, retries) — see
        :class:`~repro.serve.config.ServeConfig`.
    metrics:
        Fleet metric families; a private registry when omitted.
    """

    def __init__(
        self,
        payload: WorkerPayload,
        config: Optional[ServeConfig] = None,
        metrics: Optional[FleetMetrics] = None,
    ) -> None:
        self.payload = payload
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else FleetMetrics()
        self.n_workers = self.config.fleet_workers
        self._handles: List[Optional[WorkerHandle]] = [None] * self.n_workers
        self._ready: List[threading.Event] = [
            threading.Event() for _ in range(self.n_workers)
        ]
        self._generations = itertools.count(1)
        self._lock = threading.Lock()          # guards slot swaps
        self._spawn_locks = [threading.Lock() for _ in range(self.n_workers)]
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._running = False
        self._mp = self._pick_context()
        self.metrics.fleet_size.set(self.n_workers)
        for slot in range(self.n_workers):
            # pre-register per-slot series so dashboards see explicit zeros
            # from the first scrape, not gaps until the first restart
            self.metrics.worker_up(slot).set(0)
            self.metrics.worker_restarts(slot)

    @staticmethod
    def _pick_context():
        import multiprocessing as mp

        # fork is markedly cheaper than spawn and inherits the model with
        # no pickling; fall back to the platform default elsewhere (the
        # WorkerPayload is picklable either way)
        if "fork" in mp.get_all_start_methods():
            return mp.get_context("fork")
        return mp.get_context()

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            raise ServeError("supervisor already started")
        self._running = True
        self._stop.clear()
        try:
            for slot in range(self.n_workers):
                self._spawn_into_slot(slot)
        except Exception:
            self._running = False
            self._teardown_all()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        """Drain every worker and stop the monitor; idempotent."""
        if not self._running:
            return
        self._running = False
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        self._teardown_all()

    def _teardown_all(self) -> None:
        for slot in range(self.n_workers):
            with self._lock:
                handle = self._handles[slot]
                self._handles[slot] = None
                self._ready[slot].clear()
            if handle is not None:
                handle.shutdown()
                self.metrics.worker_up(slot).set(0)

    # -- spawning / monitoring -----------------------------------------------

    def _spawn(self, slot: int, weights: Optional[Dict] = None) -> WorkerHandle:
        """Fork one worker for ``slot`` and warm it (ping; optional reload).

        The returned handle is *not* yet installed in the routing table —
        blue-green swaps warm the replacement before exposing it.
        """
        generation = next(self._generations)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, slot, generation, self.payload),
            name=f"repro-serve-worker-{slot}-{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps exactly one end
        handle = WorkerHandle(slot, generation, process, parent_conn)
        try:
            handle.request(
                wire.IPC_PING, timeout=self.config.worker_start_timeout_s
            )
            if weights is not None:
                handle.request(
                    wire.IPC_RELOAD, weights,
                    timeout=self.config.worker_start_timeout_s,
                )
        except ServeError:
            handle.shutdown(timeout=1.0)
            raise
        return handle

    def _spawn_into_slot(self, slot: int, weights: Optional[Dict] = None) -> None:
        handle = self._spawn(slot, weights=weights)
        with self._lock:
            self._handles[slot] = handle
            self._ready[slot].set()
        self.metrics.worker_up(slot).set(1)

    def _respawn_if_current(self, slot: int, dead: WorkerHandle) -> None:
        """Replace ``dead`` unless another thread already swapped the slot.

        Called from both the monitor and the predict retry path; the
        per-slot spawn lock plus the generation check make the two paths
        race-free (at most one replacement per death).
        """
        with self._spawn_locks[slot]:
            with self._lock:
                current = self._handles[slot]
                if current is not dead or not self._running:
                    return
                self._ready[slot].clear()
                self._handles[slot] = None
            self.metrics.worker_up(slot).set(0)
            self.metrics.worker_restarts(slot).inc()
            dead.shutdown(timeout=1.0)
            if not self._running:
                return
            self._spawn_into_slot(slot)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            for slot in range(self.n_workers):
                with self._lock:
                    handle = self._handles[slot]
                if handle is not None and not handle.alive():
                    try:
                        self._respawn_if_current(slot, handle)
                    except ServeError:  # spawn failed: retry next tick
                        pass

    # -- request routing -----------------------------------------------------

    def handle_for(self, slot: int,
                   timeout: Optional[float] = None) -> WorkerHandle:
        """The slot's current live handle, waiting out an in-flight respawn."""
        if not 0 <= slot < self.n_workers:
            raise ServeError(f"no such worker slot: {slot}")
        budget = (
            timeout if timeout is not None
            else self.config.worker_start_timeout_s
        )
        if not self._ready[slot].wait(timeout=budget):
            raise ServeError(
                f"worker slot {slot} unavailable after {budget:g}s"
            )
        with self._lock:
            handle = self._handles[slot]
        if handle is None:
            raise ServeError(f"worker slot {slot} is being replaced")
        return handle

    def predict(self, slot: int, items: Sequence[Any],
                precision: Optional[str] = None) -> List[int]:
        """Classify ``items`` on the slot's worker, surviving worker death.

        The fleet's predict_fn: runs inside a shard batcher's executor
        thread.  A batch lost to a dying/hung worker is re-sent to the
        slot's replacement up to ``worker_retries`` times — the client
        never sees a single worker crash.  ``precision`` pins the worker's
        execution tier for this batch (None = the worker engine's default).
        """
        payload = {"items": list(items), "precision": precision}
        attempts = self.config.worker_retries + 1
        last_error: Optional[WorkerExitedError] = None
        for attempt in range(attempts):
            if not self._running:
                raise ServeError("fleet is shutting down")
            try:
                handle = self.handle_for(slot)
            except ServeError as exc:
                last_error = WorkerExitedError(str(exc))
                continue
            try:
                return handle.request(
                    wire.IPC_PREDICT, payload,
                    timeout=self.config.worker_request_timeout_s,
                )
            except WorkerExitedError as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    self.metrics.retried_batches.inc()
                # don't wait for the monitor's next tick
                self._respawn_now_or_pass(slot, handle)
        raise ServeError(
            f"batch failed after {attempts} attempt(s) on worker slot "
            f"{slot}: {last_error}"
        )

    def _respawn_now_or_pass(self, slot: int, dead: WorkerHandle) -> None:
        try:
            self._respawn_if_current(slot, dead)
        except ServeError:
            pass  # monitor keeps retrying; predict's own retry loop decides

    # -- fleet-wide operations -----------------------------------------------

    def rolling_restart(self, weights: Optional[Dict] = None) -> Dict[str, Any]:
        """Blue-green swap every slot, one at a time; zero dropped requests.

        Per slot: spawn + warm the replacement (loading ``weights`` into it
        first when given), atomically swap it into the routing table, then
        drain the old worker (its in-flight batch completes before the
        queued shutdown frame).  With ``weights`` this is a hot model
        reload; without, a plain rolling restart.
        """
        if not self._running:
            raise ServeError("supervisor is not running")
        swapped = []
        for slot in range(self.n_workers):
            with self._spawn_locks[slot]:
                replacement = self._spawn(slot, weights=weights)
                with self._lock:
                    old = self._handles[slot]
                    self._handles[slot] = replacement
                    self._ready[slot].set()
                self.metrics.worker_up(slot).set(1)
                swapped.append({
                    "worker": slot,
                    "old_pid": old.pid if old is not None else None,
                    "new_pid": replacement.pid,
                    "generation": replacement.generation,
                })
            if old is not None:
                old.shutdown()
        self.metrics.reloads.inc()
        return {
            "workers": len(swapped),
            "reloaded_weights": weights is not None,
            "swaps": swapped,
        }

    def reload_weights(self, model) -> Dict[str, Any]:
        """Hot-swap ``model``'s parameters into every worker (blue-green)."""
        weights = {
            name: param.data.copy()
            for name, param in model.named_parameters().items()
        }
        return self.rolling_restart(weights=weights)

    # -- introspection -------------------------------------------------------

    def describe(self) -> List[Dict[str, Any]]:
        """Per-slot status for ``/healthz``: pid, generation, liveness."""
        out = []
        for slot in range(self.n_workers):
            with self._lock:
                handle = self._handles[slot]
            restarts = self.metrics.worker_restarts(slot).value
            if handle is None:
                out.append({
                    "worker": slot, "up": False, "pid": None,
                    "generation": None, "restarts": int(restarts),
                })
            else:
                out.append({
                    "worker": slot,
                    "up": handle.alive(),
                    "pid": handle.pid,
                    "generation": handle.generation,
                    "restarts": int(restarts),
                })
        return out

    def worker_stats(self, slot: int) -> Dict[str, Any]:
        """One worker's cumulative EngineStats (via an IPC stats frame)."""
        return self.handle_for(slot).request(
            wire.IPC_STATS, timeout=self.config.worker_request_timeout_s
        )
