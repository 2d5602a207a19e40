"""Minimal stdlib HTTP frontend for the solve service.

Three endpoints, enough to drive the service from ``curl`` (no web
framework -- the container ships only the scientific stack):

* ``GET /healthz`` -- liveness + pool/queue stats as JSON;
* ``GET /metrics`` -- the full ``serve.*``/solver metrics and
  convergence series as an OpenMetrics text exposition;
* ``POST /solve`` -- JSON body with scenario fields and an optional
  ``deadline_s``; responds with the typed :class:`SolveResponse`
  summary.  Shed/timeout/failure map to HTTP 503/504/500 so plain HTTP
  tooling sees the service's admission decisions.

The parser handles exactly what those endpoints need (request line,
headers, Content-Length body); it is a test/demo surface, not a
hardened proxy target.  A declared body above :data:`MAX_BODY_BYTES`
is refused with 413 before any of it is read.
"""

from __future__ import annotations

import asyncio
import json

from repro.observability import get_metrics, get_series, render
from repro.serve.requests import SolveRequest, SolveScenario
from repro.serve.service import SolveService

__all__ = ["serve_http"]

#: largest request body read: a solve request is a few hundred bytes
MAX_BODY_BYTES = 64 * 1024

_STATUS_HTTP = {
    "ok": 200,
    "degraded": 200,
    "timeout": 504,
    "failed": 500,
    "shed": 503,
}
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


class _BodyTooLarge(ValueError):
    """A declared Content-Length above :data:`MAX_BODY_BYTES` (-> 413)."""


def _response(code: int, body: bytes, content_type: str) -> bytes:
    head = (
        f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


def _json_response(code: int, doc: dict) -> bytes:
    return _response(code, (json.dumps(doc) + "\n").encode(), "application/json")


async def _read_request(reader: asyncio.StreamReader):
    line = await reader.readline()
    if not line:
        return None, None, b""
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None, None, b""
    method, path = parts[0].upper(), parts[1]
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip() or 0)  # ValueError -> 400 in _handle
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _BodyTooLarge(f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:  # -> 400 in _handle
        raise ValueError(
            f"body ended after {len(exc.partial)} of {length} Content-Length bytes"
        ) from None
    return method, path, body


async def _handle(service: SolveService, reader, writer) -> None:
    try:
        try:
            method, path, body = await _read_request(reader)
        except ValueError as exc:  # malformed or oversized Content-Length, or a short body
            code = 413 if isinstance(exc, _BodyTooLarge) else 400
            writer.write(_json_response(code, {"error": str(exc)}))
            await writer.drain()
            return
        if method is None:
            return
        if method == "GET" and path == "/healthz":
            doc = {
                "status": "ok",
                "workers": len(service.pool.workers),
                "busy": service.pool.busy(),
                "queue_depth": service.pool.depth(),
                "worker_deaths": service.pool.deaths,
            }
            writer.write(_json_response(200, doc))
        elif method == "GET" and path == "/metrics":
            text = render(get_metrics().snapshot(), get_series())
            writer.write(_response(
                200, text.encode(),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            ))
        elif method == "POST" and path == "/solve":
            try:
                doc = json.loads(body.decode() or "{}")
                if not isinstance(doc, dict):
                    raise ValueError("request body must be a JSON object")
                # the JSON values as sent: the scenario and the request refuse
                # what is not their type (``int()`` would truncate a 3.7-layer
                # request, ``float()`` make ``true`` a one-second deadline)
                scenario = SolveScenario(
                    name=str(doc.get("name", "http")),
                    resolution_km=doc.get("resolution_km", 600.0),
                    num_layers=doc.get("num_layers", 3),
                    preconditioner=doc.get("preconditioner", "vline"),
                    nparts=doc.get("nparts", 1),
                    newton_steps=doc.get("newton_steps", 8),
                    family=doc.get("family", "antarctica"),
                )
                request = SolveRequest(scenario, deadline_s=doc.get("deadline_s"))
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                writer.write(_json_response(400, {"error": str(exc)}))
            else:
                resp = await service.submit(request)
                writer.write(_json_response(_STATUS_HTTP[resp.status], resp.to_dict()))
        else:
            writer.write(_json_response(404, {"error": f"no route {method} {path}"}))
        await writer.drain()
    finally:
        writer.close()


async def serve_http(service: SolveService, host: str = "127.0.0.1", port: int = 8077,
                     ready_cb=None):
    """Run the HTTP frontend until cancelled (service must be started)."""
    server = await asyncio.start_server(
        lambda r, w: _handle(service, r, w), host, port
    )
    if ready_cb is not None:
        # actual bound port (port=0 lets the OS choose -- used by tests)
        ready_cb(server.sockets[0].getsockname()[1])
    async with server:
        await server.serve_forever()
