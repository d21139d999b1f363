"""Serving worker pool: content-hash routing, worker IPC, chaos, admin ops.

In-process tests over :class:`~repro.serve.service.InferenceService` with
``fleet_workers`` > 1 and :class:`~repro.serve.supervisor.Supervisor`,
with a tiny real MV-GNN:

* routing — :func:`content_shard` is deterministic, in range, and the
  pool's labels are identical to a direct ``Engine.predict_many``;
* backend parity — one engine answers byte-identical classify / advise /
  batch bodies with ``fleet_workers`` 1 (in process) and 2 (worker pool),
  and the 400/422 gate fires before any slot is chosen on both;
* chaos — SIGKILLing a worker under concurrent load loses zero client
  requests (the supervisor retries the batch on the respawned worker);
* operations — rolling restart and hot weight reload swap every worker
  blue-green, and reloaded weights actually change what workers serve;
* metrics — per-worker / per-shard labeled series render with one
  HELP/TYPE block per family;
* IPC — malformed frames are rejected with :class:`WireError`, and a
  worker-side application error comes back typed without killing the
  worker.

The subprocess signal matrix (SIGTERM to the whole server, fleet mode
end-to-end over HTTP) lives in ``test_fleet_signals.py`` behind the
``slow`` marker.
"""

import asyncio
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import (
    GraphValidationError,
    ServeError,
    WireError,
    WorkerExitedError,
)
from repro.serve import (
    InferenceService,
    ServeConfig,
    Supervisor,
    WorkerPayload,
    content_shard,
)
from repro.serve import wire
from repro.serve.http import HttpServer

from tests.serve.helpers import (
    graph_payload,
    random_graph,
    random_payloads,
    tiny_engine,
)


def run(coro):
    return asyncio.run(coro)


def fleet_config(n_workers=2, **overrides):
    defaults = dict(
        fleet_workers=n_workers,
        max_wait_ms=2.0,
        default_deadline_ms=None,
        worker_start_timeout_s=60.0,
        worker_request_timeout_s=60.0,
        health_interval_s=0.05,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def with_fleet(engine, config, body, **kwargs):
    service = InferenceService(engine, config, **kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


def make_graphs(rng, count, sizes=(5, 6, 7, 8)):
    return [
        random_graph(rng, sizes[i % len(sizes)], graph_id=f"g{i}")
        for i in range(count)
    ]


class TestContentShard:
    def test_deterministic_and_in_range(self, rng):
        graphs = make_graphs(rng, 32)
        for graph in graphs:
            shard = content_shard(graph, 4)
            assert 0 <= shard < 4
            assert content_shard(graph, 4) == shard  # stable across calls

    def test_id_does_not_affect_routing(self, rng):
        """Routing keys on content, like the FeatureCache, not on the id."""
        graph = random_graph(rng, 6, graph_id="a")
        renamed = type(graph)(
            x_semantic=graph.x_semantic,
            x_structural=graph.x_structural,
            adjacency=graph.adjacency,
            graph_id="b",
        )
        assert content_shard(graph, 8) == content_shard(renamed, 8)

    def test_spreads_over_shards(self, rng):
        shards = {content_shard(g, 2) for g in make_graphs(rng, 64)}
        assert shards == {0, 1}

    def test_single_shard_degenerates_to_zero(self, rng):
        assert content_shard(random_graph(rng, 5), 1) == 0


class TestWorkerPoolService:
    def test_labels_match_direct_engine(self, rng):
        engine = tiny_engine()
        graphs = make_graphs(rng, 16)
        direct = [int(l) for l in engine.predict_many(graphs, batch_size=16)]

        async def body(service):
            return await asyncio.gather(
                *(service.submit_graph(g) for g in graphs)
            )

        labels = run(with_fleet(engine, fleet_config(), body))
        assert labels == direct

    def test_health_reports_fleet_shape(self, rng):
        async def body(service):
            await service.submit_graph(random_graph(rng, 5))
            return service.health()

        health = run(with_fleet(tiny_engine(), fleet_config(2), body))
        assert health["mode"] == "fleet"
        assert health["fleet_size"] == 2
        workers = health["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert all(w["up"] and w["pid"] for w in workers)

    def test_shard_and_worker_metrics_render(self, rng):
        async def body(service):
            graphs = make_graphs(rng, 32)
            await asyncio.gather(*(service.submit_graph(g) for g in graphs))
            return service.metrics_text()

        text = run(with_fleet(tiny_engine(), fleet_config(2), body))
        assert 'serve_worker_up{worker="0"} 1' in text
        assert 'serve_worker_up{worker="1"} 1' in text
        assert 'serve_worker_restarts_total{worker="0"} 0' in text
        assert 'serve_shard_requests_total{shard="0"}' in text
        assert 'serve_shard_requests_total{shard="1"}' in text
        assert "serve_fleet_size 2" in text
        # one HELP/TYPE block per family, however many children it has
        assert text.count("# HELP serve_worker_up ") == 1
        assert text.count("# TYPE serve_worker_up ") == 1
        assert text.count("# HELP serve_shard_requests_total ") == 1

    def test_classify_validates_before_routing(self, rng):
        """The 400/422 gate runs at the front end, pre-routing: no shard
        counter moves for rejected traffic."""

        async def body(service):
            with pytest.raises(WireError):
                await service.classify({"x_semantic": "nope"})
            for shard in range(service.n_workers):
                assert service.fleet_metrics.shard_requests(shard).value == 0
            return True

        assert run(with_fleet(tiny_engine(), fleet_config(2), body))


def invalid_payload(rng):
    """Decodes into arrays but fails the GR lint gate (asymmetric adjacency)."""
    payload = graph_payload(random_graph(rng, 4, graph_id="bad"))
    payload["adjacency"][0][1] = 1.0
    payload["adjacency"][1][0] = 0.0
    return payload


class TestBackendParity:
    """``fleet_workers`` picks where batches run, never what clients see."""

    def test_response_bodies_identical_across_backends(self, rng):
        engine = tiny_engine()
        payloads = random_payloads(rng, (3, 5, 6, 7, 8, 4))
        # calibrated (static) scales: fast labels do not depend on how the
        # two backends happen to split requests into batches
        engine.calibrate([
            random_graph(rng, n) for n in (3, 5, 6, 7, 8, 4)
        ])
        plans = {
            "g0": {"loop": "g0", "validation": {"status": "validated"}},
            "g2": {"loop": "g2", "validation": {"status": "refuted"}},
        }
        requests = [
            *(("/v1/classify", p) for p in payloads),
            ("/v1/classify?precision=fast", payloads[1]),
            ("/v1/classify", {**payloads[2], "precision": "fast"}),
            *(("/v1/advise", p) for p in payloads[:3]),
            ("/v1/classify_batch", {"loops": payloads}),
            ("/v1/classify_batch?precision=fast", {"loops": payloads[:3]}),
            ("/v1/classify_batch",
             {"loops": [payloads[0], invalid_payload(rng)]}),
            ("/v1/classify", invalid_payload(rng)),
            ("/v1/classify", ["not", "an", "object"]),
        ]

        def bodies(n_workers):
            async def body(service):
                server = HttpServer(service, service.config)
                out = []
                for path, payload in requests:
                    status, result, _, _ = await server._route(
                        "POST", path, json.dumps(payload).encode()
                    )
                    out.append((path, status, json.dumps(result)))
                return out

            return run(with_fleet(
                engine, fleet_config(n_workers), body, advisor_plans=plans,
            ))

        in_process, pooled = bodies(1), bodies(2)
        assert [status for _, status, _ in in_process] == (
            [200] * 13 + [422, 422, 400]
        )
        assert in_process == pooled

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_gate_rejects_before_a_slot_is_chosen(
        self, rng, monkeypatch, n_workers
    ):
        chosen = []
        real_submit = InferenceService._submit

        def spy_submit(self, graph, tier, deadline_ms):
            chosen.append(graph.graph_id)
            return real_submit(self, graph, tier, deadline_ms)

        monkeypatch.setattr(InferenceService, "_submit", spy_submit)
        good = graph_payload(random_graph(rng, 5, graph_id="ok"))

        async def body(service):
            with pytest.raises(GraphValidationError):
                await service.classify(invalid_payload(rng))
            with pytest.raises(GraphValidationError):
                await service.classify_batch(
                    {"loops": [good, invalid_payload(rng)]}
                )
            with pytest.raises(WireError):
                await service.advise({"x_semantic": "nope"})
            return service.metrics.requests.value

        admitted = run(with_fleet(
            tiny_engine(), fleet_config(n_workers), body, advisor_plans={},
        ))
        assert chosen == [] and admitted == 0


class TestChaos:
    def test_sigkill_under_load_loses_no_requests(self, rng):
        """The ISSUE's chaos clause: kill a worker mid-load, expect zero
        failed client requests and at least one recorded respawn."""
        engine = tiny_engine()
        graphs = make_graphs(rng, 24)
        direct = [int(l) for l in engine.predict_many(graphs, batch_size=24)]

        async def body(service):
            async def submit_wave():
                return await asyncio.gather(
                    *(service.submit_graph(g) for g in graphs)
                )

            first = await submit_wave()  # warm: all workers have served
            victim = service.supervisor.handle_for(0)
            os.kill(victim.process.pid, signal.SIGKILL)
            waves = [await submit_wave() for _ in range(3)]
            restarts = service.fleet_metrics.worker_restarts(0).value
            return first, waves, restarts

        first, waves, restarts = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert first == direct
        for wave in waves:
            assert wave == direct  # zero failed, zero wrong
        assert restarts >= 1

    def test_monitor_respawns_killed_worker(self):
        """SIGKILL of a single worker triggers respawn (monitor path, no
        request traffic) and the supervisor itself keeps running."""
        config = fleet_config(2)
        supervisor = Supervisor(
            WorkerPayload.from_engine(tiny_engine()), config
        )
        supervisor.start()
        try:
            old = supervisor.handle_for(0)
            os.kill(old.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                handle = None
                try:
                    handle = supervisor.handle_for(0, timeout=1.0)
                except ServeError:
                    pass
                if handle is not None and handle is not old and handle.alive():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("monitor never respawned the killed worker")
            assert supervisor.running
            assert supervisor.handle_for(1).alive()  # sibling untouched
            assert supervisor.metrics.worker_restarts(0).value >= 1
        finally:
            supervisor.stop()

    def test_retries_exhausted_is_typed_error(self):
        """When every retry lands on a dead fleet, the caller gets a typed
        ServeError rather than a hang."""
        config = fleet_config(1, worker_retries=0, worker_start_timeout_s=60.0)
        supervisor = Supervisor(
            WorkerPayload.from_engine(tiny_engine()), config
        )
        supervisor.start()
        try:
            # simulate total loss with no respawn window: stop routing first
            supervisor._running = False
            with pytest.raises(ServeError):
                supervisor.predict(0, [])
        finally:
            supervisor._running = True
            supervisor.stop()


class TestFleetPrecision:
    """The precision tier crosses the IPC boundary intact."""

    def test_fast_labels_match_direct_engine(self, rng):
        # calibrated scales are static (keyed by op position), so fast
        # labels are batch-composition-invariant — required for comparing
        # the fleet's micro-batches against one direct batch; uncalibrated
        # dynamic scales depend on what else shares the batch
        engine = tiny_engine()
        graphs = make_graphs(rng, 16)
        engine.calibrate(graphs)
        direct = [
            int(l) for l in
            engine.predict_many(graphs, batch_size=16, precision="fast")
        ]

        async def body(service):
            return await asyncio.gather(
                *(service.submit_graph(g, precision="fast") for g in graphs)
            )

        labels = run(with_fleet(engine, fleet_config(), body))
        assert labels == direct

    def test_classify_echoes_tier_and_counts_it(self, rng):
        engine = tiny_engine()
        graph = random_graph(rng, 6, graph_id="p0")
        payload = {
            "id": "p0",
            "x_semantic": graph.x_semantic.tolist(),
            "x_structural": graph.x_structural.tolist(),
            "adjacency": graph.adjacency.tolist(),
        }

        async def body(service):
            default = await service.classify(dict(payload))
            pinned = await service.classify(dict(payload), precision="fast")
            via_body = await service.classify(
                {**payload, "precision": "fast"}
            )
            fast_count = service.metrics.precision_requests("fast").value
            return default, pinned, via_body, fast_count

        default, pinned, via_body, fast_count = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert default["precision"] == "exact"
        assert pinned["precision"] == "fast"
        assert via_body["precision"] == "fast"
        assert fast_count == 2

    def test_sigkill_under_fast_load_loses_no_requests(self, rng):
        """The chaos clause, fast tier: kill a worker mid-load while every
        request is pinned ``fast`` — zero failed requests, zero wrong
        labels, and the respawned worker keeps serving the tier."""
        engine = tiny_engine()
        graphs = make_graphs(rng, 24)
        engine.calibrate(graphs)  # static scales: batch-invariant labels
        direct = [
            int(l) for l in
            engine.predict_many(graphs, batch_size=24, precision="fast")
        ]

        async def body(service):
            async def submit_wave():
                return await asyncio.gather(*(
                    service.submit_graph(g, precision="fast")
                    for g in graphs
                ))

            first = await submit_wave()  # warm: all workers have served
            victim = service.supervisor.handle_for(0)
            os.kill(victim.process.pid, signal.SIGKILL)
            waves = [await submit_wave() for _ in range(3)]
            restarts = service.fleet_metrics.worker_restarts(0).value
            return first, waves, restarts

        first, waves, restarts = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert first == direct
        for wave in waves:
            assert wave == direct  # zero failed, zero wrong
        assert restarts >= 1


class TestRollingOps:
    def test_rolling_restart_swaps_every_worker(self, rng):
        engine = tiny_engine()
        graphs = make_graphs(rng, 8)
        direct = [int(l) for l in engine.predict_many(graphs, batch_size=8)]

        async def body(service):
            before = {w["worker"]: w["pid"] for w in service.supervisor.describe()}
            summary = await service.restart()
            after = {w["worker"]: w["pid"] for w in service.supervisor.describe()}
            labels = await asyncio.gather(
                *(service.submit_graph(g) for g in graphs)
            )
            return before, after, summary, labels

        before, after, summary, labels = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert summary["workers"] == 2
        assert summary["reloaded_weights"] is False
        for slot in (0, 1):
            assert before[slot] != after[slot]  # genuinely new processes
        assert labels == direct

    def test_reload_pushes_new_weights_to_workers(self, rng):
        """Hot reload is observable: mutate the master model so some labels
        flip, reload, and the workers must serve the new model's labels."""
        engine = tiny_engine()
        graphs = make_graphs(rng, 16)
        before = [int(l) for l in engine.predict_many(graphs, batch_size=16)]

        async def body(service):
            served_before = await asyncio.gather(
                *(service.submit_graph(g) for g in graphs)
            )
            # bias the classifier head hard toward class 0
            params = service.engine.model.named_parameters()
            for name, param in params.items():
                if name.endswith("bias") and param.data.shape[-1] == 2:
                    param.data[...] = np.array([50.0, -50.0])
            summary = await service.reload()
            served_after = await asyncio.gather(
                *(service.submit_graph(g) for g in graphs)
            )
            return served_before, summary, served_after

        served_before, summary, served_after = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert served_before == before
        assert summary["reloaded_weights"] is True
        assert summary["workers"] == 2
        assert served_after == [0] * len(graphs)

    def test_reload_weights_rejects_mismatched_model(self):
        from repro.serve.supervisor import _apply_weights

        engine = tiny_engine()
        weights = {
            name: param.data.copy()
            for name, param in engine.model.named_parameters().items()
        }
        weights.pop(next(iter(weights)))
        with pytest.raises(ServeError, match="mismatch"):
            _apply_weights(engine.model, weights)


class TestAdminRoutes:
    def test_single_process_admin_is_409(self, rng):
        engine = tiny_engine()
        config = ServeConfig(default_deadline_ms=None)

        async def body():
            service = InferenceService(engine, config)
            await service.start()
            try:
                server = HttpServer(service, config)
                status, payload, _, _ = await server._route(
                    "POST", "/admin/reload", b""
                )
                return status, payload
            finally:
                await service.stop()

        status, payload = run(body())
        assert status == 409
        assert "--workers" in payload["error"]

    def test_fleet_admin_routes_succeed(self, rng):
        engine = tiny_engine()

        async def body(service):
            server = HttpServer(service, service.config)
            status, payload, _, _ = await server._route(
                "POST", "/admin/reload", b"{}"
            )
            status2, payload2, _, _ = await server._route(
                "POST", "/admin/restart", b""
            )
            get_status, _, _, _ = await server._route(
                "GET", "/admin/reload", b""
            )
            return (status, payload), (status2, payload2), get_status

        (s1, p1), (s2, p2), get_status = run(
            with_fleet(engine, fleet_config(2), body)
        )
        assert s1 == 200 and p1["workers"] == 2
        assert s2 == 200 and p2["workers"] == 2
        assert get_status == 405

    def test_reload_with_bad_checkpoint_is_client_visible_error(self, rng):
        async def body(service):
            server = HttpServer(service, service.config)
            status, payload, _, _ = await server._route(
                "POST", "/admin/reload",
                b'{"checkpoint": "/nonexistent/weights.npz"}',
            )
            return status, payload

        status, payload = run(with_fleet(tiny_engine(), fleet_config(2), body))
        assert status == 500
        assert "error" in payload


class TestWorkerIPC:
    def test_frame_round_trip(self):
        frame = wire.make_frame(wire.IPC_PREDICT, 7, ["x"])
        kind, req_id, body = wire.check_frame(frame, wire.IPC_REQUEST_KINDS)
        assert (kind, req_id, body) == (wire.IPC_PREDICT, 7, ["x"])

    @pytest.mark.parametrize("bad", [
        None,
        "predict",
        ("predict",),
        ("predict", "not-an-int", None),
        ("launch-missiles", 1, None),
        ("ok", 1, None),  # reply kind where a request is expected
    ])
    def test_malformed_frames_rejected(self, bad):
        with pytest.raises(WireError):
            wire.check_frame(bad, wire.IPC_REQUEST_KINDS)

    def test_worker_application_error_is_typed_and_survivable(self):
        """Garbage predict items raise in the worker's engine; the reply is
        a typed ServeError and the same worker keeps serving afterwards."""
        supervisor = Supervisor(
            WorkerPayload.from_engine(tiny_engine()), fleet_config(1)
        )
        supervisor.start()
        try:
            handle = supervisor.handle_for(0)
            with pytest.raises(ServeError, match="worker 0#"):
                handle.request(
                    wire.IPC_PREDICT, ["not a graph"], timeout=30.0
                )
            assert handle.alive()
            info = handle.request(wire.IPC_PING, timeout=30.0)
            assert info["slot"] == 0
        finally:
            supervisor.stop()

    def test_worker_stats_frame(self, rng):
        engine = tiny_engine()

        async def body(service):
            graphs = make_graphs(rng, 8)
            await asyncio.gather(*(service.submit_graph(g) for g in graphs))
            return [
                service.supervisor.worker_stats(slot)
                for slot in range(service.n_workers)
            ]

        stats = run(with_fleet(engine, fleet_config(2), body))
        assert sum(s["graphs"] for s in stats) == 8
        assert all(
            set(s) == {"graphs", "batches", "seconds"}
            for s in stats
        )

    def test_dead_handle_raises_worker_exited(self):
        supervisor = Supervisor(
            WorkerPayload.from_engine(tiny_engine()), fleet_config(1)
        )
        supervisor.start()
        try:
            handle = supervisor.handle_for(0)
            os.kill(handle.process.pid, signal.SIGKILL)
            with pytest.raises(WorkerExitedError):
                handle.request(wire.IPC_PING, timeout=10.0)
        finally:
            supervisor.stop()
