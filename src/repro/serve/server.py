"""JSON-lines control socket for the tuning daemon.

One request per line, one response per line, over a Unix domain
socket — the simplest transport that lets the CLI (and the CI smoke
job) drive a daemon in another process without pulling in any
dependency the container doesn't already have.

Request:  ``{"op": "...", ...}``
Response: ``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``

Ops:

``ping``        → ``{"ok": true, "pong": true}``
``add_tenant``  → body ``{"spec": <TenantSpec dict>}``
``ingest``      → body ``{"tenant": id, "statements": [sql, ...]}``
``status``      → daemon-wide counters (per-tenant + scheduler)
``rounds``      → body ``{"tenant": id?}`` — round log records
``recommend``   → body ``{"tenant": id}`` — pending recommendations
``review``      → body ``{"tenant": id, "rec_id": n, "accept": bool,
                  "note": str}``
``shutdown``    → drain + checkpoint + stop serving

The server is deliberately thin: every op maps 1:1 onto a
:class:`~repro.serve.daemon.TuningDaemon` method, so everything the
socket can do is equally reachable (and tested) in-process.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Optional

from repro.serve.daemon import TuningDaemon

__all__ = ["DaemonServer", "DaemonClient", "request"]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "DaemonServer" = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                response = server.dispatch(
                    json.loads(line.decode("utf-8"))
                )
            except Exception as exc:
                # The daemon must answer malformed/failing requests,
                # not die on them; the error travels to the client.
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            stop = response.get("op") == "shutdown" and response.get("ok")
            try:
                self.wfile.write(
                    json.dumps(response).encode("utf-8") + b"\n"
                )
                self.wfile.flush()
            finally:
                # Stop only once the reply is out: the main thread may
                # exit the process as soon as serving stops.
                if stop:
                    server.request_stop()
            if stop:
                break


class _SocketServer(
    socketserver.ThreadingMixIn, socketserver.UnixStreamServer
):
    daemon_threads = True
    allow_reuse_address = True


class DaemonServer:
    """Serve a :class:`TuningDaemon` over a Unix domain socket."""

    def __init__(self, daemon: TuningDaemon, socket_path: str):
        self.daemon = daemon
        self.socket_path = str(socket_path)
        self._server = _SocketServer(self.socket_path, _Handler)
        self._shutdown_result: Optional[dict] = None
        self._stop_event = threading.Event()
        # The handler reaches the daemon through server.dispatch, and
        # stops serving through server.request_stop once it has
        # written the shutdown reply.
        self._server.dispatch = self.dispatch  # type: ignore[attr-defined]
        self._server.request_stop = self._stop_event.set  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request_body: dict) -> dict:
        op = request_body.get("op")
        daemon = self.daemon
        if op == "ping":
            return {"ok": True, "op": op, "pong": True}
        if op == "add_tenant":
            from repro.serve.config import TenantSpec

            spec = TenantSpec.from_dict(request_body["spec"])
            return {
                "ok": True,
                "op": op,
                "status": daemon.add_tenant(spec),
            }
        if op == "ingest":
            result = daemon.ingest(
                request_body["tenant"],
                [str(s) for s in request_body["statements"]],
            )
            return {"ok": True, "op": op, **result}
        if op == "status":
            return {"ok": True, "op": op, **daemon.status()}
        if op == "rounds":
            return {
                "ok": True,
                "op": op,
                "rounds": daemon.round_log(request_body.get("tenant")),
            }
        if op == "recommend":
            return {
                "ok": True,
                "op": op,
                "recommendations": daemon.recommendations(
                    request_body["tenant"]
                ),
            }
        if op == "review":
            return {
                "ok": True,
                "op": op,
                "recommendation": daemon.resolve_review(
                    request_body["tenant"],
                    int(request_body["rec_id"]),
                    bool(request_body["accept"]),
                    note=str(request_body.get("note", "")),
                ),
            }
        if op == "shutdown":
            # Serving stops once the handler has written this reply.
            self._shutdown_result = daemon.shutdown(
                drain=bool(request_body.get("drain", True))
            )
            return {"ok": True, "op": op, **self._shutdown_result}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> Optional[dict]:
        """Serve until a ``shutdown`` request arrives; returns the
        shutdown result."""
        self.daemon.start()
        thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        thread.start()
        try:
            self._stop_event.wait()
        finally:
            self._server.shutdown()
            self._server.server_close()
            thread.join(timeout=5.0)
        return self._shutdown_result

    def close(self) -> None:
        self._stop_event.set()
        self._server.shutdown()
        self._server.server_close()


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


def request(socket_path: str, body: dict, timeout: float = 30.0) -> dict:
    """One request/response round-trip over the control socket."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(socket_path))
        sock.sendall(json.dumps(body).encode("utf-8") + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ConnectionError(
            f"no response from daemon at {socket_path}"
        )
    return json.loads(raw.decode("utf-8"))


class DaemonClient:
    """Convenience wrapper: one connection per call, typed helpers."""

    def __init__(self, socket_path: str, timeout: float = 30.0):
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def call(self, body: dict) -> dict:
        response = request(
            self.socket_path, body, timeout=self.timeout
        )
        if not response.get("ok"):
            raise RuntimeError(
                response.get("error", "daemon request failed")
            )
        return response

    def ping(self) -> bool:
        try:
            return bool(self.call({"op": "ping"}).get("pong"))
        except (OSError, ConnectionError):
            return False

    def add_tenant(self, spec_dict: dict) -> dict:
        return self.call({"op": "add_tenant", "spec": spec_dict})

    def ingest(self, tenant: str, statements) -> dict:
        return self.call(
            {
                "op": "ingest",
                "tenant": tenant,
                "statements": list(statements),
            }
        )

    def status(self) -> dict:
        return self.call({"op": "status"})

    def rounds(self, tenant: Optional[str] = None) -> dict:
        return self.call({"op": "rounds", "tenant": tenant})

    def recommend(self, tenant: str) -> dict:
        return self.call({"op": "recommend", "tenant": tenant})

    def review(
        self, tenant: str, rec_id: int, accept: bool, note: str = ""
    ) -> dict:
        return self.call(
            {
                "op": "review",
                "tenant": tenant,
                "rec_id": rec_id,
                "accept": accept,
                "note": note,
            }
        )

    def shutdown(self, drain: bool = True) -> dict:
        return self.call({"op": "shutdown", "drain": drain})
