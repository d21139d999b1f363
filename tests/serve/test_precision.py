"""Precision tiering through the serve layer: tier echo, degrade-before-
shed, pinned ``exact``, per-tier batch isolation, and the ``?precision``
wire surface."""

import asyncio
import json
import threading

import pytest

from repro.errors import ConfigError
from repro.serve import InferenceService, ServeConfig, resolve_precision

from tests.serve.helpers import (
    graph_payload,
    random_graph,
    random_payloads,
    tiny_engine,
)
from tests.serve.test_http import http_request, with_server


def run(coro):
    return asyncio.run(coro)


async def with_service(engine, config, body):
    service = InferenceService(engine, config)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


async def _poll_until(predicate, timeout_s=5.0):
    for _ in range(int(timeout_s / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    pytest.fail("condition not reached in time")


class TestResolvePrecision:
    """The one shared policy function both services route through."""

    def test_pinned_tiers_pass_through(self):
        config = ServeConfig(max_queue_depth=8, downgrade_queue_depth=2)
        assert resolve_precision("exact", config, 999) == ("exact", False)
        assert resolve_precision("fast", config, 0) == ("fast", False)

    def test_unpinned_downgrades_at_threshold(self):
        config = ServeConfig(max_queue_depth=8, downgrade_queue_depth=2)
        assert resolve_precision(None, config, 1) == ("exact", False)
        assert resolve_precision(None, config, 2) == ("fast", True)
        assert resolve_precision(None, config, 7) == ("fast", True)

    def test_threshold_defaults_to_half_queue(self):
        config = ServeConfig(max_queue_depth=8)
        assert config.effective_downgrade_depth == 4
        assert resolve_precision(None, config, 3) == ("exact", False)
        assert resolve_precision(None, config, 4) == ("fast", True)

    def test_zero_disables_downgrade(self):
        config = ServeConfig(max_queue_depth=8, downgrade_queue_depth=0)
        assert config.effective_downgrade_depth is None
        assert resolve_precision(None, config, 999) == ("exact", False)

    def test_fast_default_never_reports_downgrade(self):
        config = ServeConfig(default_precision="fast", downgrade_queue_depth=1)
        assert resolve_precision(None, config, 999) == ("fast", False)


class TestTierEcho:
    def test_classify_echoes_effective_tier(self, rng):
        engine = tiny_engine()
        payload = graph_payload(random_graph(rng, 5))

        async def body(service):
            default = await service.classify(dict(payload))
            pinned = await service.classify(dict(payload), precision="fast")
            via_body = await service.classify(
                {**payload, "precision": "fast"}
            )
            return default, pinned, via_body

        default, pinned, via_body = run(
            with_service(engine, ServeConfig(max_wait_ms=1), body)
        )
        assert default["precision"] == "exact"
        assert pinned["precision"] == "fast"
        assert via_body["precision"] == "fast"
        assert set(default) == {"id", "label", "precision"}

    def test_fast_labels_match_direct_engine_fast_path(self, rng):
        engine = tiny_engine()
        graphs = [random_graph(rng, n, graph_id=f"g{i}")
                  for i, n in enumerate((3, 7, 1, 5, 9))]
        # calibrated scales are batch-invariant, so the service's smaller
        # micro-batches reproduce the direct one-batch labels exactly
        engine.calibrate(graphs)
        direct = engine.predict_many(graphs, precision="fast")

        async def body(service):
            out = await service.classify_batch(
                {"loops": [graph_payload(g) for g in graphs]},
                precision="fast",
            )
            return out

        out = run(with_service(
            engine, ServeConfig(max_batch_size=3, max_wait_ms=1), body
        ))
        assert out["precision"] == "fast"
        assert [r["label"] for r in out["results"]] == [int(x) for x in direct]

    def test_batch_precision_from_body_field(self, rng):
        engine = tiny_engine()
        payloads = random_payloads(rng, (3, 4))

        async def body(service):
            out = await service.classify_batch(
                {"loops": payloads, "precision": "fast"}
            )
            assert out["precision"] == "fast"
            assert service.metrics.precision_requests("fast").value == 1
            assert service.metrics.precision_requests("exact").value == 0

        run(with_service(engine, ServeConfig(max_wait_ms=1), body))

    def test_health_reports_default_precision(self):
        engine = tiny_engine()

        async def body(service):
            assert service.health()["default_precision"] == "fast"

        run(with_service(
            engine, ServeConfig(default_precision="fast"), body
        ))


class TestDegradeBeforeShed:
    def _gated_engine(self, release):
        """Engine whose *exact*-tier predictions block until released; the
        fast tier stays free — exactly the asymmetry the downgrade policy
        exists to exploit."""
        engine = tiny_engine()
        real_predict = engine.predict_many

        def gated(items, batch_size=None, precision=None):
            if precision != "fast":
                release.wait(timeout=10)
            return real_predict(
                items, batch_size=batch_size or len(items),
                precision=precision,
            )

        engine.predict_many = gated
        return engine

    def test_downgrade_fires_under_pressure_and_recovers(self, rng):
        release = threading.Event()
        engine = self._gated_engine(release)
        payloads = random_payloads(rng, (3, 4, 2, 5, 6))
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=0, max_queue_depth=8,
            downgrade_queue_depth=1, default_deadline_ms=30_000.0,
        )

        async def body(service):
            exact_batcher = service.batchers[(0, "exact")]
            first = asyncio.create_task(service.classify(payloads[0]))
            await _poll_until(lambda: service.metrics.requests.value >= 1)
            # engine occupied; a pinned-exact request now sits in the queue
            second = asyncio.create_task(
                service.classify(payloads[1], precision="exact")
            )
            await _poll_until(lambda: exact_batcher.queue_depth >= 1)
            # unpinned request under pressure: downgraded, not shed, and
            # served immediately through the free fast tier
            downgraded = await service.classify(payloads[2])
            assert downgraded["precision"] == "fast"
            assert service.metrics.downgrades.value == 1
            assert service.metrics.shed_queue_full.value == 0

            release.set()
            first_out, second_out = await asyncio.gather(first, second)
            assert first_out["precision"] == "exact"
            assert second_out["precision"] == "exact"

            # pressure gone: unpinned traffic is exact again
            await _poll_until(lambda: exact_batcher.queue_depth == 0)
            recovered = await service.classify(payloads[3])
            assert recovered["precision"] == "exact"
            assert service.metrics.downgrades.value == 1

        run(with_service(engine, config, body))

    def test_pinned_exact_never_downgraded(self, rng):
        release = threading.Event()
        engine = self._gated_engine(release)
        payloads = random_payloads(rng, (3, 4, 2))
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=0, max_queue_depth=8,
            downgrade_queue_depth=1, default_deadline_ms=30_000.0,
        )

        async def body(service):
            exact_batcher = service.batchers[(0, "exact")]
            first = asyncio.create_task(service.classify(payloads[0]))
            await _poll_until(lambda: service.metrics.requests.value >= 1)
            second = asyncio.create_task(
                service.classify(payloads[1], precision="exact")
            )
            await _poll_until(lambda: exact_batcher.queue_depth >= 1)
            # pressure is past the downgrade threshold, but this request
            # pinned exact: it must queue behind the block, not switch tier
            third = asyncio.create_task(
                service.classify(payloads[2], precision="exact")
            )
            await _poll_until(lambda: exact_batcher.queue_depth >= 2)
            assert service.metrics.downgrades.value == 0

            release.set()
            outs = await asyncio.gather(first, second, third)
            assert [o["precision"] for o in outs] == ["exact"] * 3
            assert service.metrics.downgrades.value == 0

        run(with_service(engine, config, body))


class TestNoMixedCoalescing:
    def test_batches_are_tier_homogeneous(self, rng):
        """Interleaved fast/exact traffic with a coalescing-friendly window
        must never share a micro-batch across tiers (per-tier batchers make
        this structural; the recording predict fn proves it end to end)."""
        engine = tiny_engine()
        real_predict = engine.predict_many
        calls = []

        def recording(items, batch_size=None, precision=None):
            calls.append((precision, [g.graph_id for g in items]))
            return real_predict(
                items, batch_size=batch_size or len(items),
                precision=precision,
            )

        engine.predict_many = recording
        exact_ids = {f"e{i}" for i in range(6)}
        fast_ids = {f"f{i}" for i in range(6)}
        exact_payloads = [
            graph_payload(random_graph(rng, 3 + i % 3, graph_id=f"e{i}"))
            for i in range(6)
        ]
        fast_payloads = [
            graph_payload(random_graph(rng, 3 + i % 3, graph_id=f"f{i}"))
            for i in range(6)
        ]
        config = ServeConfig(max_batch_size=4, max_wait_ms=10.0)

        async def body(service):
            out = await asyncio.gather(*(
                [service.classify(p) for p in exact_payloads]
                + [service.classify(p, precision="fast")
                   for p in fast_payloads]
            ))
            assert all("label" in r for r in out)

        run(with_service(engine, config, body))
        assert calls
        for precision, ids in calls:
            tiers = {
                "exact" if gid in exact_ids else "fast" for gid in ids
            }
            assert len(tiers) == 1, f"mixed-tier micro-batch: {ids}"
            # and the tier the batch ran at matches the tier requested
            expected = "fast" if tiers == {"fast"} else "exact"
            ran_at = "fast" if precision == "fast" else "exact"
            assert ran_at == expected


class TestHttpSurface:
    def test_query_param_selects_tier(self, rng):
        payloads = random_payloads(rng, (4, 6))

        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify?precision=fast",
                body=payloads[0],
            )
            assert status == 200
            assert json.loads(raw)["precision"] == "fast"
            status, _, raw = await http_request(
                port, "POST", "/v1/classify_batch?precision=fast",
                body={"loops": payloads},
            )
            assert status == 200
            out = json.loads(raw)
            assert out["precision"] == "fast"
            assert len(out["results"]) == 2
            status, _, raw = await http_request(
                port, "POST", "/v1/classify", body=payloads[0]
            )
            assert json.loads(raw)["precision"] == "exact"
            text = service.metrics_text()
            assert 'serve_precision_requests_total{precision="fast"} 2' in text
            assert 'serve_precision_requests_total{precision="exact"} 1' in text
            assert "serve_precision_downgrades_total 0" in text

        asyncio.run(with_server(
            ServeConfig(port=0, max_wait_ms=1.0), body
        ))

    def test_bad_precision_is_400(self, rng):
        payloads = random_payloads(rng, (3,))

        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify?precision=turbo",
                body=payloads[0],
            )
            assert status == 400
            assert "precision" in json.loads(raw)["error"]
            status, _, raw = await http_request(
                port, "POST", "/v1/classify",
                body={**payloads[0], "precision": "turbo"},
            )
            assert status == 400

        asyncio.run(with_server(
            ServeConfig(port=0, max_wait_ms=1.0), body
        ))

    def test_bad_default_precision_rejected(self):
        with pytest.raises(ConfigError, match="precision"):
            ServeConfig(default_precision="turbo")
