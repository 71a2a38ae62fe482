"""HTTP/JSON API for the campaign scheduler daemon.

Pure-stdlib (``http.server``) local API — no framework, no new
dependencies.  Routes::

    POST /v1/campaigns                 submit (idempotent; 429 on full)
    GET  /v1/campaigns/<cid>           status + leases + lineage
    GET  /v1/campaigns/<cid>/results   verified results (409 until done)
    POST /v1/campaigns/<cid>/cancel    cancel pending work
    GET  /v1/healthz                   liveness + queue/cache counters
    POST /v1/agents                    register a remote worker agent
    POST /v1/agents/<aid>/lease        pull up to N leased jobs
    POST /v1/agents/<aid>/renew        bulk lease renewal (HTTP heartbeat)
    POST /v1/agents/<aid>/result       deliver one attempt outcome
    POST /v1/agents/<aid>/drain        stop leasing to this agent
    GET  /v1/fleet                     agent registry + degradation state

Unknown agent ids answer 410 (the registry died with a daemon restart):
the agent's cue to re-register and continue.

Every typed :class:`~repro.errors.ServiceError` maps onto its HTTP
status, with ``Retry-After`` emitted for 429/503 so well-behaved
clients back off instead of hammering a draining daemon.  A client that
disconnects mid-request (or sends a truncated body) costs the daemon
one 400/broken-pipe, never the process: handler errors are contained
per-connection by the threading server.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError, ServiceError

__all__ = ["make_server"]

#: Submission bodies larger than this are refused outright — campaign
#: specs are small; a huge body is a bug or abuse, not a campaign.
MAX_BODY_BYTES = 4 * 1024 * 1024


def make_server(service) -> ThreadingHTTPServer:
    """A bound (not yet serving) threaded HTTP server for ``service``."""

    class Handler(_ServiceHandler):
        pass

    Handler.service = service
    server = _QuietThreadingServer(
        (service.config.host, service.config.port), Handler
    )
    return server


class _QuietThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def handle_error(self, request, client_address):
        # A client that vanished mid-response is routine (the chaos
        # harness does it on purpose); anything else still surfaces.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class _ServiceHandler(BaseHTTPRequestHandler):
    service = None  # injected by make_server
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    # Headers and body go out as two writes; with Nagle on, a keep-alive
    # client waits out its own delayed ACK (~40 ms) on every request.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            route = self._route(method)
            if route is None:
                raise ServiceError(
                    f"no route for {method} {self.path}", status=404
                )
            self._reply(200, route)
        except ServiceError as exc:
            self._reply_error(exc)
        except ReproError as exc:
            self._reply_error(ServiceError(str(exc), status=500))
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing left to tell it
        except Exception as exc:  # noqa: BLE001 — keep the daemon alive
            self._reply_error(ServiceError(
                f"internal error: {type(exc).__name__}: {exc}", status=500
            ))

    def _route(self, method: str) -> Optional[Dict[str, Any]]:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        svc = self.service
        if method == "GET" and parts == ["v1", "healthz"]:
            return svc.healthz()
        if method == "GET" and parts == ["v1", "fleet"]:
            return svc.fleet_status()
        if parts[:2] == ["v1", "agents"] and method == "POST":
            if len(parts) == 2:
                return svc.agent_register(self._body())
            if len(parts) == 4:
                aid, action = parts[2], parts[3]
                if action == "lease":
                    return svc.agent_lease(aid, self._body())
                if action == "renew":
                    return svc.agent_renew(aid, self._body())
                if action == "result":
                    return svc.agent_result(aid, self._body())
                if action == "drain":
                    return svc.agent_drain(aid)
            return None
        if parts[:1] != ["v1"] or len(parts) < 2 or parts[1] != "campaigns":
            return None
        if method == "POST" and len(parts) == 2:
            return svc.submit(self._body())
        if len(parts) == 3 and method == "GET":
            return svc.status(parts[2])
        if len(parts) == 4 and parts[3] == "results" and method == "GET":
            return svc.results(parts[2])
        if len(parts) == 4 and parts[3] == "cancel" and method == "POST":
            return svc.cancel(parts[2])
        return None

    # ------------------------------------------------------------------
    # Request/response plumbing
    # ------------------------------------------------------------------

    def _body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ServiceError("bad Content-Length header", status=400)
        if length <= 0:
            raise ServiceError("request body required", status=400)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body too large ({length} bytes)", status=413
            )
        raw = self.rfile.read(length)
        if len(raw) < length:
            # Truncated body: the client disconnected mid-upload.  The
            # partial submission must not be acted on.
            raise ServiceError(
                f"truncated request body ({len(raw)}/{length} bytes)",
                status=400,
            )
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not JSON: {exc}",
                               status=400)
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object",
                               status=400)
        return body

    def _reply(self, status: int, payload: Dict[str, Any],
               extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        blob = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            for name, value in extra_headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(blob)
        except (ConnectionError, BrokenPipeError):
            pass  # mid-stream disconnect; state is already durable

    def _reply_error(self, exc: ServiceError) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        if exc.retry_after is not None:
            headers = (("Retry-After", f"{exc.retry_after:g}"),)
        self._reply(exc.status, {
            "error": type(exc).__name__,
            "message": str(exc),
            "retry_after": exc.retry_after,
        }, headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the WAL is the log; per-request stderr noise helps no one
