"""The daemon process the benchmark drives.

A :class:`~repro.serve.daemon.TuningDaemon` behind the JSON-lines
control socket, served until a ``shutdown`` op arrives.  Public API
only.  ``serve.config`` hard-codes toy scales and has no TPC-DS, so
tenants are created empty (``workload=None``) and loaded at benchmark
scale by the ``load`` op this module adds to the server.

``load`` runs on the connection's handler thread, the thread that
later serves that connection's ``ingest`` ops.  That matters for
sqlite tenants: an sqlite3 connection only works on the thread that
opened it, and rounds run inline on the ingest thread, so a tenant
created on the main thread (as ``python -m repro.serve start --tenant
…,backend=sqlite`` does) fails every index change with
``ProgrammingError`` and rolls it back.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.serve.config import TenantSpec  # noqa: E402
from repro.serve.daemon import TuningDaemon  # noqa: E402
from repro.serve.server import DaemonServer  # noqa: E402

from perfbench.workloads import make_generator  # noqa: E402


def load_tenants(daemon: TuningDaemon, tenants: list) -> None:
    """Create every tenant (restoring it if the daemon's checkpoint
    root has it) and load its schema and data."""
    for entry in tenants:
        spec = TenantSpec.from_dict(entry["spec"])
        daemon.add_tenant(spec)
        make_generator(entry["kind"], entry["args"]).build(
            daemon.registry.get(spec.tenant_id).backend
        )


class BenchServer(DaemonServer):
    """The control socket plus ``{"op": "load", "tenants": [...]}``."""

    def dispatch(self, request_body: dict) -> dict:
        if request_body.get("op") != "load":
            return super().dispatch(request_body)
        load_tenants(self.daemon, request_body["tenants"])
        return {"ok": True, "op": "load",
                "tenants": self.daemon.registry.tenant_ids()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--checkpoint-root", required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the process to this core")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    root = pathlib.Path(args.checkpoint_root)
    root.mkdir(parents=True, exist_ok=True)
    daemon = TuningDaemon(workers=args.workers, checkpoint_root=root)
    socket_path = pathlib.Path(args.socket)
    if socket_path.exists():
        socket_path.unlink()
    server = BenchServer(daemon, str(socket_path))
    try:
        server.serve_forever()
    finally:
        if socket_path.exists():
            socket_path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
