"""Process control and the closed-loop load generator.

The generator is a log forwarder: one thread, one connection, the
next batch is sent only after the previous one is acknowledged.  A
slow daemon therefore receives less load — this measures capacity
(statements per second, batch latency at full utilisation), not
latency at a fixed arrival rate.  Frames are encoded before timing;
the timed loop only sends, receives and reads the clock, and replies
are parsed afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from perfbench.workloads import Batch, Plan

__all__ = [
    "WORK",
    "Connection",
    "DaemonProcess",
    "LoopResult",
    "closed_loop",
    "encode",
    "load_tenants",
    "percentile",
    "pin_cores",
    "tree_bytes",
]

#: Everything a run writes lives here (ignored by git); relative,
#: because a Unix socket path must stay short: runs start at the root.
WORK = pathlib.Path("perfbench") / ".work"

READY_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 120.0


@functools.lru_cache(maxsize=None)
def pin_cores() -> tuple:
    """(daemon core, generator core), or (None, None) on one core.

    Decided once, from the cores this process may use when first
    asked, and the generator (this process) is pinned there and then.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None, None
    os.sched_setaffinity(0, {cores[1]})
    return cores[0], cores[1]


def encode(batches: Sequence[Batch]) -> List[bytes]:
    return [
        json.dumps(
            {"op": "ingest", "tenant": tenant, "statements": statements}
        ).encode("utf-8")
        + b"\n"
        for tenant, statements in batches
    ]


def tree_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Connection:
    """One persistent JSON-lines connection to the control socket."""

    def __init__(self, socket_path: str, timeout: float = REPLY_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(socket_path)
        self._buffer = b""

    def roundtrip(self, frame: bytes) -> bytes:
        """Send one frame, return the raw reply line."""
        self.sock.sendall(frame)
        buffer = self._buffer
        while b"\n" not in buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buffer += chunk
        line, _, self._buffer = buffer.partition(b"\n")
        return line

    def call(self, body: dict) -> dict:
        return json.loads(
            self.roundtrip(json.dumps(body).encode("utf-8") + b"\n")
        )

    def close(self) -> None:
        self.sock.close()


def load_tenants(connection: Connection, plan: Plan) -> None:
    """The ``load`` op: tenants are built on the thread that will
    serve this connection's ingests (see ``daemon_main``)."""
    reply = connection.call(
        {"op": "load", "tenants": [t.to_dict() for t in plan.tenants]}
    )
    if not reply.get("ok"):
        raise RuntimeError(f"tenant load failed: {reply.get('error')}")


class DaemonProcess:
    """``daemon_main`` as a child process, from spawn to reaped."""

    def __init__(
        self,
        plan: Plan,
        run_dir: pathlib.Path,
        checkpoint_root: Optional[pathlib.Path] = None,
        workers: int = 0,
        cpu: Optional[int] = None,
    ):
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_root = (
            checkpoint_root if checkpoint_root is not None
            else run_dir / "ckpt"
        )
        self.socket_path = str(run_dir / "d.sock")
        command = [
            sys.executable,
            str(pathlib.Path("perfbench") / "daemon_main.py"),
            "--socket", self.socket_path,
            "--checkpoint-root", str(self.checkpoint_root),
            "--workers", str(workers),
        ]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        started = time.perf_counter()
        self.process = subprocess.Popen(command)
        try:
            self.connection = self._wait_ready(started)
            load_tenants(self.connection, plan)
        except BaseException:
            self.kill()
            raise
        #: spawn → socket up → every tenant created, restored, loaded.
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, started: float) -> Connection:
        path = pathlib.Path(self.socket_path)
        while time.perf_counter() - started < READY_TIMEOUT_S:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} "
                    "before it was ready"
                )
            if path.exists():
                try:
                    connection = Connection(self.socket_path)
                except OSError:
                    pass
                else:
                    if connection.call({"op": "ping"}).get("pong"):
                        return connection
                    connection.close()
            time.sleep(0.005)
        raise RuntimeError("daemon not ready in time")

    # -- /proc ---------------------------------------------------------------

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon so far."""
        stat = pathlib.Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- end -----------------------------------------------------------------

    def shutdown(self) -> dict:
        """Drain, checkpoint, stop; waits until the process has ended.

        The server sets its stop event before its handler thread has
        written the shutdown reply, so a daemon whose main thread wins
        that race exits with the reply unsent.  A missing reply is
        therefore not a failure; a non-zero exit code is.
        """
        started = time.perf_counter()
        try:
            reply = self.connection.call({"op": "shutdown", "drain": True})
        except (OSError, ValueError):
            reply = {}
        self.connection.close()
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.process.returncode} on shutdown"
            )
        reply["shutdown_s"] = time.perf_counter() - started
        return reply

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


@dataclass
class LoopResult:
    """What the closed loop saw: per-batch send/ack clocks and replies."""

    sent: List[float] = field(default_factory=list)
    acked: List[float] = field(default_factory=list)
    replies: List[bytes] = field(default_factory=list)
    statements: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0

    @property
    def batches(self) -> int:
        return len(self.sent)

    def latencies_ms(self) -> List[float]:
        return [(a - s) * 1e3 for s, a in zip(self.sent, self.acked)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100]; 0.0 of nothing."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(len(ordered) * q / 100.0 + 0.999999) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def closed_loop(
    connection: Connection,
    frames: Sequence[bytes],
    sizes: Sequence[int],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> LoopResult:
    """Send frames one at a time, each after the last one's ack.

    Stops after ``count`` batches or at the first ack past ``seconds``
    (whichever is given); frame ``i`` is ``frames[i % len]``,
    so a fast daemon that exhausts the stream sees it again.
    """
    result = LoopResult()
    clock = time.perf_counter
    roundtrip = connection.roundtrip
    total = len(frames)
    index = 0
    began = clock()
    deadline = began + seconds if seconds is not None else None
    blocked = 0.0
    while True:
        if count is not None and result.batches >= count:
            break
        frame = frames[index % total]
        t0 = clock()
        reply = roundtrip(frame)
        t1 = clock()
        blocked += t1 - t0
        result.sent.append(t0)
        result.acked.append(t1)
        result.replies.append(reply)
        result.statements += sizes[index % total]
        index += 1
        if deadline is not None and t1 >= deadline:
            break
    result.wall_s = clock() - began
    result.busy_s = result.wall_s - blocked
    return result


def fresh_dir(name: str) -> pathlib.Path:
    """An empty run directory under the work area."""
    path = WORK / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
