"""Stdlib-only asyncio HTTP/1.1 front end for the inference service.

No web framework: a hand-rolled request loop over ``asyncio.start_server``
— read a request line, headers, and a Content-Length body; route; write a
JSON (or Prometheus text) response.  Keep-alive is supported so load
generators and sidecars can reuse connections; parsing is deliberately
minimal (no chunked encoding, no pipelining guarantees) because the only
intended clients are toolchain components and ``curl``.

Routes
------

==========================  =====================================================
``POST /v1/classify``       one loop object -> ``{"id", "label", "precision"}``
``POST /v1/advise``         classify + the stored advice plan (409 when the
                            server has no plan index; see docs/ADVISOR.md)
``POST /v1/classify_batch`` ``{"loops": [...]}`` -> ``{"results", "precision"}``
``GET  /v1/example``        a valid classify payload from the example pool
``GET  /healthz``           liveness + config summary (+ per-worker status)
``GET  /metrics``           Prometheus text exposition
``POST /admin/reload``      worker pool: rolling hot weight reload (409 else)
``POST /admin/restart``     worker pool: rolling worker restart (409 else)
==========================  =====================================================

Both classify routes accept ``?precision=exact|fast`` to pin the execution
tier (a ``"precision"`` body field works too; the query parameter wins).
Unpinned requests get the server's default tier, subject to the
degrade-before-shed policy — see docs/SERVING.md.

The ``service`` behind the front end is one
:class:`~repro.serve.service.InferenceService`, over its in-process engine
or a worker pool; routing below never branches on the backend, except the
admin routes, which need a pool (``service.supervisor``).

Error mapping: :class:`~repro.errors.WireError` -> 400,
:class:`~repro.errors.GraphValidationError` -> 422 (with a machine-readable
``findings`` list from the lint admission gate),
:class:`~repro.errors.QueueFullError` -> 429 (with ``Retry-After``),
:class:`~repro.errors.DeadlineExceededError` -> 504, any other
:class:`~repro.errors.ServeError` -> 500.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    GraphValidationError,
    QueueFullError,
    ReproError,
    ServeError,
    WireError,
)
from repro.serve import wire
from repro.serve.config import ServeConfig
from repro.serve.service import InferenceService

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


def _query_precision(query: str) -> Optional[str]:
    """The ``?precision=`` pin from a raw query string (None = unpinned).

    Raises :class:`WireError` (-> 400) on an unknown tier, inside the
    routing try block like every other wire-level failure.
    """
    if not query:
        return None
    from urllib.parse import parse_qsl

    params = dict(parse_qsl(query, keep_blank_values=True))
    return wire.decode_precision(params.get("precision"), where="query")


class HttpServer:
    """Asyncio HTTP front end bound to one :class:`InferenceService`."""

    def __init__(
        self, service: InferenceService, config: Optional[ServeConfig] = None
    ) -> None:
        self.service = service
        self.config = config if config is not None else service.config
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind and listen; returns the actual port (resolves port 0)."""
        if self._server is not None:
            raise ServeError("HTTP server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass  # client went away or idled out: nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; True when the connection should stay open."""
        timeout = self.config.request_timeout_s
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=timeout
        )
        if not request_line:
            return False
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, close=True
            )
            return False
        method, path, version = parts

        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            await self._respond(
                writer, 400, {"error": "bad Content-Length"}, close=True
            )
            return False
        if length > self.config.max_body_bytes:
            await self._respond(
                writer, 413,
                {"error": f"body exceeds {self.config.max_body_bytes} bytes"},
                close=True,
            )
            return False
        body = (
            await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
            if length else b""
        )

        keep_alive = (
            version.upper() != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        status, payload, content_type, extra = await self._route(
            method.upper(), path, body
        )
        await self._respond(
            writer, status, payload, content_type=content_type,
            extra_headers=extra, close=not keep_alive,
        )
        return keep_alive

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any, str, Dict[str, str]]:
        """-> (status, payload, content-type, extra headers)."""
        path, _, query = path.partition("?")
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": "use GET"}, "application/json", {}
                return 200, self.service.health(), "application/json", {}
            if path == "/metrics":
                if method != "GET":
                    return 405, {"error": "use GET"}, "application/json", {}
                return (
                    200, self.service.metrics_text(),
                    "text/plain; version=0.0.4", {},
                )
            if path == "/v1/example":
                if method != "GET":
                    return 405, {"error": "use GET"}, "application/json", {}
                return 200, self.service.example_payload(), "application/json", {}
            if path == "/v1/classify":
                if method != "POST":
                    return 405, {"error": "use POST"}, "application/json", {}
                result = await self.service.classify(
                    wire.parse_json(body),
                    precision=_query_precision(query),
                )
                return 200, result, "application/json", {}
            if path == "/v1/advise":
                if method != "POST":
                    return 405, {"error": "use POST"}, "application/json", {}
                if self.service.advisor_plans is None:
                    return (
                        409,
                        {"error": "advisor not enabled: start the server "
                                  "with an advice-plan index (repro serve "
                                  "builds one unless --no-advisor)"},
                        "application/json", {},
                    )
                result = await self.service.advise(
                    wire.parse_json(body),
                    precision=_query_precision(query),
                )
                return 200, result, "application/json", {}
            if path == "/v1/classify_batch":
                if method != "POST":
                    return 405, {"error": "use POST"}, "application/json", {}
                result = await self.service.classify_batch(
                    wire.parse_json(body),
                    precision=_query_precision(query),
                )
                return 200, result, "application/json", {}
            if path in ("/admin/reload", "/admin/restart"):
                if method != "POST":
                    return 405, {"error": "use POST"}, "application/json", {}
                return await self._route_admin(path, body)
            return 404, {"error": f"no such route: {path}"}, "application/json", {}
        except GraphValidationError as exc:
            self.service.metrics.invalid_graphs.inc()
            return (
                422, {"error": str(exc), "findings": exc.findings},
                "application/json", {},
            )
        except WireError as exc:
            self.service.metrics.bad_requests.inc()
            return 400, {"error": str(exc)}, "application/json", {}
        except QueueFullError as exc:
            return (
                429, {"error": str(exc), "retry_after_s": exc.retry_after_s},
                "application/json",
                {"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))},
            )
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc)}, "application/json", {}
        except ServeError as exc:
            return 500, {"error": str(exc)}, "application/json", {}
        except ReproError as exc:
            # non-serve library failure surfaced by an admin action (e.g. a
            # bad reload checkpoint): an error response, not a dead socket
            return 500, {"error": str(exc)}, "application/json", {}

    async def _route_admin(
        self, path: str, body: bytes
    ) -> Tuple[int, Any, str, Dict[str, str]]:
        """Worker-pool administration: rolling reload / restart.

        On a service with no worker pool behind it these answer 409 so
        operators learn the server has nothing to roll.
        ``/admin/reload`` accepts an optional JSON body
        ``{"checkpoint": "<npz path>"}`` to load fresh weights first.
        """
        if self.service.supervisor is None:
            return (
                409,
                {"error": "not a fleet: start with --workers N to enable "
                          "rolling reload/restart"},
                "application/json", {},
            )
        if path == "/admin/restart":
            return 200, await self.service.restart(), "application/json", {}
        checkpoint = None
        if body:
            payload = wire.parse_json(body)
            if not isinstance(payload, dict):
                raise WireError("admin/reload: body must be a JSON object")
            checkpoint = payload.get("checkpoint")
            if checkpoint is not None and not isinstance(checkpoint, str):
                raise WireError("admin/reload: checkpoint must be a string")
        return (
            200, await self.service.reload(checkpoint=checkpoint),
            "application/json", {},
        )

    # -- response writing ----------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve_forever(
    service: InferenceService,
    config: Optional[ServeConfig] = None,
    announce=print,
    ready_event: Optional[asyncio.Event] = None,
) -> int:
    """Run service + HTTP server until SIGINT/SIGTERM; returns an exit code.

    The CLI's ``repro serve`` main loop: starts everything, announces the
    bound address (``repro-serve listening on http://host:port``), installs
    signal handlers for a clean shutdown, and returns 130 when terminated
    by a signal — the conventional "interrupted" exit status.
    """
    config = config if config is not None else service.config
    server = HttpServer(service, config)
    await service.start()
    port = await server.start()
    announce(f"repro-serve listening on http://{config.host}:{port}")
    if ready_event is not None:
        ready_event.set()

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    interrupted = False

    def _on_signal() -> None:
        nonlocal interrupted
        interrupted = True
        stop.set()

    registered = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, _on_signal)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loop: Ctrl-C falls back to KeyboardInterrupt

    try:
        await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.stop()
        await service.stop()
        announce("repro-serve: shut down cleanly")
    return 130 if interrupted else 0
