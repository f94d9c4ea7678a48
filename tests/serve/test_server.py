"""Control socket: every op round-trips over the Unix socket."""

from __future__ import annotations

import json
import select
import socket
import threading
import time

import pytest

from repro.serve.config import make_generator, parse_tenant_spec
from repro.serve.daemon import TuningDaemon
from repro.serve.server import DaemonClient, DaemonServer


@pytest.fixture
def served(tmp_path):
    """A daemon with one tenant serving on a temp Unix socket."""
    daemon = TuningDaemon(
        checkpoint_root=tmp_path / "ckpt", workers=1
    )
    daemon.add_tenant(
        parse_tenant_spec(
            "alpha,workload=banking,round-every=40,mcts-iterations=20"
        )
    )
    socket_path = tmp_path / "control.sock"
    server = DaemonServer(daemon, str(socket_path))
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    client = DaemonClient(str(socket_path), timeout=120.0)
    deadline = 200
    while deadline and not client.ping():
        deadline -= 1
        time.sleep(0.05)
    assert deadline, "daemon socket never came up"
    yield daemon, client
    server.close()
    thread.join(timeout=5.0)


def test_socket_round_trip(served):
    daemon, client = served
    generator = make_generator("banking", seed=5)
    statements = [q.sql for q in generator.queries(40, seed=5)]

    result = client.ingest("alpha", statements)
    assert result["ingested"] == 40

    # Poll status until the background worker finishes the round.
    for _ in range(1200):
        status = client.status()
        if status["rounds_completed"] >= 1:
            break
        time.sleep(0.05)
    assert status["rounds_completed"] == 1
    assert "alpha" in status["tenants"]

    rounds = client.rounds("alpha")["rounds"]
    assert len(rounds) == 1
    assert rounds[0]["tenant_id"] == "alpha"
    assert not rounds[0]["skipped"]

    recommendations = client.recommend("alpha")["recommendations"]
    assert isinstance(recommendations, list)

    spec = parse_tenant_spec(
        "beta,backend=sqlite,workload=banking,round-every=500"
    )
    added = client.add_tenant(spec.to_dict())
    assert added["status"]["tenant_id"] == "beta"
    assert added["status"]["backend"] == "sqlite"

    result = client.shutdown()
    assert result["rounds_completed"] == 1
    assert sorted(result["tenants"]) == ["alpha", "beta"]


def test_unknown_op_is_an_error_not_a_crash(served):
    daemon, client = served
    with pytest.raises(RuntimeError, match="unknown op"):
        client.call({"op": "frobnicate"})
    # The server survives and keeps answering.
    assert client.ping()


def test_dispatch_shutdown_does_not_stop_serving(tmp_path):
    """Only the socket handler stops the server, after the reply."""
    server = DaemonServer(TuningDaemon(), str(tmp_path / "s.sock"))
    try:
        reply = server.dispatch({"op": "shutdown"})
        assert reply["ok"] and reply["op"] == "shutdown"
        assert not server._stop_event.is_set()
    finally:
        server._server.server_close()


class _ReplyCheckedEvent(threading.Event):
    """A stop event that records, when it is set, whether the client
    can already read the shutdown reply."""

    def __init__(self):
        super().__init__()
        self.client = None
        self.reply_readable = None

    def set(self):
        readable, _, _ = select.select([self.client], [], [], 0)
        self.reply_readable = bool(readable)
        super().set()


def test_shutdown_reply_is_written_before_serving_stops(tmp_path):
    for i in range(20):
        socket_path = str(tmp_path / f"s{i}.sock")
        server = DaemonServer(TuningDaemon(), socket_path)
        event = _ReplyCheckedEvent()
        server._stop_event = event
        server._server.request_stop = event.set
        results = []
        thread = threading.Thread(
            target=lambda: results.append(server.serve_forever()),
            daemon=True,
        )
        thread.start()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(socket_path)
            event.client = sock
            sock.sendall(json.dumps({"op": "shutdown"}).encode() + b"\n")
            # Read only once serving has stopped, so the stop event
            # sees the reply still waiting in the socket if it was sent.
            thread.join(timeout=30.0)
            reply = json.loads(sock.makefile("rb").readline())
        assert not thread.is_alive()
        assert reply["ok"] and reply["op"] == "shutdown"
        assert event.reply_readable, f"stopped before the reply (run {i})"
        assert results == [server._shutdown_result]
