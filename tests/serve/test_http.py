"""HttpServer: routing, status mapping, keep-alive, and concurrent
clients against an in-process server on an OS-picked port."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import HttpServer, InferenceService, ServeConfig

from tests.serve.helpers import random_payloads, tiny_engine


async def http_request(
    port, method, path, body=None, headers=None, host="127.0.0.1"
):
    """Minimal HTTP/1.1 client: -> (status, headers, body_bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b""
        if body is not None:
            payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append(f"Content-Length: {len(payload)}")
        lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split()[1])
    response_headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, body_bytes


async def with_server(config, body, engine=None, examples=None):
    service = InferenceService(
        engine if engine is not None else tiny_engine(),
        config,
        examples=examples,
    )
    server = HttpServer(service)
    await service.start()
    port = await server.start()
    try:
        return await body(port, service)
    finally:
        await server.stop()
        await service.stop()


def config_on_free_port(**overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("max_wait_ms", 1.0)
    return ServeConfig(**overrides)


class TestRouting:
    def test_healthz(self):
        async def body(port, service):
            status, headers, raw = await http_request(port, "GET", "/healthz")
            assert status == 200
            health = json.loads(raw)
            assert health["status"] == "ok"
            assert headers["content-type"] == "application/json"

        asyncio.run(with_server(config_on_free_port(), body))

    def test_classify_and_metrics_scrape(self, rng):
        payloads = random_payloads(rng, (4, 6))

        async def body(port, service):
            direct = [
                int(x) for x in service.engine.predict_many(
                    [_decode(p) for p in payloads]
                )
            ]
            for payload, expected in zip(payloads, direct):
                status, _, raw = await http_request(
                    port, "POST", "/v1/classify", body=payload
                )
                assert status == 200
                result = json.loads(raw)
                assert result["label"] == expected
            status, headers, raw = await http_request(port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = raw.decode()
            assert "serve_requests_total 2" in text
            assert "serve_responses_total 2" in text
            assert "serve_shed_queue_full_total 0" in text
            assert "engine_graphs" in text

        asyncio.run(with_server(config_on_free_port(), body))

    def test_classify_batch(self, rng):
        payloads = random_payloads(rng, (3, 5, 2))

        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify_batch", body={"loops": payloads}
            )
            assert status == 200
            results = json.loads(raw)["results"]
            assert [r["id"] for r in results] == ["g0", "g1", "g2"]
            assert all(isinstance(r["label"], int) for r in results)

        asyncio.run(with_server(config_on_free_port(), body))

    def test_example_round_trip(self, rng, tiny_inst2vec, walk_space):
        from repro.dataset.extraction import extract_loop_samples

        from tests.helpers import build_mixed_program

        samples = extract_loop_samples(
            build_mixed_program(), None, tiny_inst2vec, walk_space,
            suite="t", app="mixed", gamma=10, rng=0,
        )
        from repro.models.dgcnn import DGCNNConfig
        from repro.models.mvgnn import MVGNN, MVGNNConfig
        from repro.runtime import Engine

        model_config = MVGNNConfig(
            semantic_features=samples[0].x_semantic.shape[1],
            walk_types=walk_space.num_types,
            node_view=DGCNNConfig(
                in_features=samples[0].x_semantic.shape[1], sortpool_k=6
            ),
            struct_view=DGCNNConfig(in_features=200, sortpool_k=6),
        )
        model = MVGNN(model_config, rng=0)
        model.eval()
        engine = Engine(model)

        async def body(port, service):
            status, _, raw = await http_request(port, "GET", "/v1/example")
            assert status == 200
            example = json.loads(raw)
            status, _, raw = await http_request(
                port, "POST", "/v1/classify", body=example
            )
            assert status == 200
            assert json.loads(raw)["id"] == example["id"]

        asyncio.run(with_server(
            config_on_free_port(), body, engine=engine, examples=samples
        ))


class TestErrorMapping:
    def test_bad_json_is_400(self):
        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify", body=b"{not json"
            )
            assert status == 400
            assert "JSON" in json.loads(raw)["error"]
            assert service.metrics.bad_requests.value == 1

        asyncio.run(with_server(config_on_free_port(), body))

    def test_invalid_payload_is_400(self):
        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify", body={"x_semantic": [[1.0]]}
            )
            assert status == 400
            assert "adjacency" in json.loads(raw)["error"]

        asyncio.run(with_server(config_on_free_port(), body))

    def test_unknown_route_is_404(self):
        async def body(port, service):
            status, _, raw = await http_request(port, "GET", "/v2/nope")
            assert status == 404

        asyncio.run(with_server(config_on_free_port(), body))

    def test_wrong_method_is_405(self):
        async def body(port, service):
            status, _, _ = await http_request(port, "GET", "/v1/classify")
            assert status == 405
            status, _, _ = await http_request(port, "POST", "/healthz")
            assert status == 405

        asyncio.run(with_server(config_on_free_port(), body))

    def test_oversized_body_is_413(self):
        config = config_on_free_port(max_body_bytes=64)

        async def body(port, service):
            status, _, _ = await http_request(
                port, "POST", "/v1/classify", body=b"x" * 100
            )
            assert status == 413

        asyncio.run(with_server(config, body))

    def test_queue_full_is_429_with_retry_after(self, rng, monkeypatch):
        """Block the engine, fill the depth-1 queue: the next request gets
        a 429 with a Retry-After hint."""
        engine = tiny_engine()
        release = threading.Event()
        real_predict = engine.predict_many

        def gated_predict(items, batch_size=None, precision=None):
            release.wait(timeout=10)
            return real_predict(
                items, batch_size=batch_size or len(items),
                precision=precision,
            )

        monkeypatch.setattr(engine, "predict_many", gated_predict)
        payloads = random_payloads(rng, (3, 4, 2))
        # downgrade_queue_depth=0 disables degrade-before-shed: this test
        # exercises the pure admission-control path (429), not the tiering
        config = config_on_free_port(
            max_batch_size=1, max_wait_ms=0, max_queue_depth=1,
            retry_after_s=0.5, downgrade_queue_depth=0,
        )

        async def body(port, service):
            first = asyncio.create_task(http_request(
                port, "POST", "/v1/classify",
                body={**payloads[0], "deadline_ms": None},
            ))
            await _poll_until(lambda: service.metrics.requests.value >= 1)
            # first request now occupies the engine; queue another...
            second = asyncio.create_task(http_request(
                port, "POST", "/v1/classify",
                body={**payloads[1], "deadline_ms": None},
            ))
            await _poll_until(lambda: service.health()["queue_depth"] >= 1)
            # ...and the queue (depth 1) is full: this one is shed
            status, headers, raw = await http_request(
                port, "POST", "/v1/classify", body=payloads[2]
            )
            assert status == 429
            assert headers["retry-after"] == "1"
            assert json.loads(raw)["retry_after_s"] == 0.5
            release.set()
            (s1, _, _), (s2, _, _) = await asyncio.gather(first, second)
            assert s1 == s2 == 200

        asyncio.run(with_server(config, body, engine=engine))

    def test_deadline_exceeded_is_504(self, rng, monkeypatch):
        engine = tiny_engine()
        real_predict = engine.predict_many

        def slow_predict(items, batch_size=None, precision=None):
            import time

            time.sleep(0.05)
            return real_predict(
                items, batch_size=batch_size or len(items),
                precision=precision,
            )

        monkeypatch.setattr(engine, "predict_many", slow_predict)
        payloads = random_payloads(rng, (3,))
        config = config_on_free_port(max_batch_size=1, max_wait_ms=0)

        async def body(port, service):
            status, _, raw = await http_request(
                port, "POST", "/v1/classify",
                body={**payloads[0], "deadline_ms": 5},
            )
            assert status == 504
            assert "deadline" in json.loads(raw)["error"]
            assert service.metrics.shed_deadline.value == 1

        asyncio.run(with_server(config, body, engine=engine))


class TestKeepAlive:
    def test_connection_reuse(self, rng):
        payloads = random_payloads(rng, (3, 4))

        async def body(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for payload in payloads:
                    data = json.dumps(payload).encode()
                    writer.write(
                        b"POST /v1/classify HTTP/1.1\r\n"
                        b"Host: x\r\n"
                        b"Content-Length: " + str(len(data)).encode() +
                        b"\r\n\r\n" + data
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert b" 200 " in head.split(b"\r\n", 1)[0]
                    length = int(
                        [h for h in head.decode().split("\r\n")
                         if h.lower().startswith("content-length")][0]
                        .split(":")[1]
                    )
                    body_bytes = await reader.readexactly(length)
                    assert "label" in json.loads(body_bytes)
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(with_server(config_on_free_port(), body))


class TestConcurrentClients:
    def test_threaded_urllib_clients_zero_drops(self, rng):
        """Many real OS-thread clients hammering the server: every request
        is answered correctly and nothing is shed."""
        client_count = 12
        payloads = random_payloads(
            rng, tuple(3 + pos % 5 for pos in range(client_count))
        )
        config = config_on_free_port(
            max_batch_size=8, max_wait_ms=5.0, default_deadline_ms=30_000.0
        )

        async def body(port, service):
            direct = [
                int(x) for x in service.engine.predict_many(
                    [_decode(p) for p in payloads]
                )
            ]
            results = [None] * client_count
            errors = []

            def client(pos):
                try:
                    request = urllib.request.Request(
                        f"http://127.0.0.1:{port}/v1/classify",
                        data=json.dumps(payloads[pos]).encode(),
                        headers={"Content-Type": "application/json"},
                        method="POST",
                    )
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        results[pos] = json.loads(resp.read())["label"]
                except (urllib.error.URLError, OSError) as exc:
                    errors.append((pos, exc))

            threads = [
                threading.Thread(target=client, args=(pos,))
                for pos in range(client_count)
            ]
            loop = asyncio.get_running_loop()

            def run_clients():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            await loop.run_in_executor(None, run_clients)
            assert not errors
            assert results == direct
            assert service.metrics.shed_queue_full.value == 0
            assert service.metrics.shed_deadline.value == 0
            assert service.metrics.requests.value == client_count
            assert service.metrics.responses.value == client_count

        asyncio.run(with_server(config, body))


async def _poll_until(predicate, timeout_s=5.0):
    for _ in range(int(timeout_s / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    pytest.fail("condition not reached in time")


def _decode(payload):
    from repro.serve.wire import decode_loop

    return decode_loop(payload)
