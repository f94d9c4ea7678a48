"""One benchmark run: one workload, one seed, ``--seconds`` measured.

    python3 perfbench/run.py --workload tpcc_steady --seed 17 \\
        --seconds 12 --trace 0

``--trace 0`` starts the daemon as a separate process, drives it from
the closed-loop generator and reports the end-to-end metrics;
``--trace 1`` repeats the workload in-process with spans recorded
(see :mod:`perfbench.trace`), checks that the traced run decided
exactly what an untraced daemon process decides on the same batches,
and reports the per-layer metrics.  Every metric is printed by name
and unit, outputs are verified (:mod:`perfbench.checks`), and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: src/repro not found next to perfbench/")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, harness, layers  # noqa: E402
from perfbench.trace import TracedServer, Tracer, instrument  # noqa: E402
from perfbench.workloads import NAMES, Plan, build_plan  # noqa: E402
from repro.serve.daemon import TuningDaemon  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SETUP_SAMPLES = 3
#: A measured phase with fewer rounds than this has no round mean to
#: report; the run is incorrect.  The slowest workload fits ~20 rounds
#: into 12 s on a quiet machine, so a higher floor would fail runs for
#: the host's speed, which is what the metrics' spread is there to show.
MIN_ROUNDS = 3
SMOKE_SCALE = 0.05


class Frames:
    """A plan's batches, encoded once, with their statement counts."""

    def __init__(self, plan: Plan):
        self.warm = harness.encode(plan.warmup)
        self.warm_sizes = [len(s) for _, s in plan.warmup]
        self.stream = harness.encode(plan.stream)
        self.stream_sizes = [len(s) for _, s in plan.stream]

    def warm_up(self, connection) -> harness.LoopResult:
        return harness.closed_loop(
            connection, self.warm, self.warm_sizes, count=len(self.warm)
        )

    def measure(self, connection, seconds=None, count=None):
        return harness.closed_loop(
            connection, self.stream, self.stream_sizes,
            seconds=seconds, count=count,
        )


def batches_sent(plan: Plan, measured: int) -> list:
    """Every batch a run sent: the warm-up, then ``measured`` batches
    of the (cycled) stream."""
    stream = plan.stream
    return plan.warmup + [stream[i % len(stream)] for i in range(measured)]


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


@dataclass
class Driven:
    """What driving one daemon process through a plan produced."""

    root: pathlib.Path
    setup_samples: List[float]
    coldstart_samples: List[float]
    warm: harness.LoopResult
    loop: harness.LoopResult
    replies: List[dict]
    sent: list
    status: dict
    rounds: List[dict]
    cpu_s: float
    peak_rss_mb: float
    checkpoint_bytes: int
    digest: str
    makespan_s: float
    shutdown_s: float
    problems: List[str]

    @property
    def attempted(self) -> int:
        return self.warm.statements + self.loop.statements

    @property
    def failed(self) -> int:
        return checks.observe_failures(self.status) + sum(
            len(batch[1]) for batch, reply in zip(self.sent, self.replies)
            if not reply.get("ok")
        )


def _await_rounds(daemon: harness.DaemonProcess, workers: int) -> None:
    """With round-worker threads rounds run behind the acks: wait
    until none is queued or running.  Inline, an ack means done."""
    while workers:
        queue = daemon.connection.call({"op": "status"})["scheduler"]
        if not queue["queued"] and not queue["running"]:
            break
        time.sleep(0.01)


def drive(
    plan: Plan,
    frames: Frames,
    run_dir: pathlib.Path,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    setups: int = 1,
    workers: int = 0,
) -> Driven:
    """Start ``daemon_main``, warm it up, run the closed loop for
    ``seconds`` (or ``count`` batches), shut it down; check the acks,
    the counters and the rounds.

    Set-up and the warm-up (fixed work: the cold start) are measured
    ``setups`` times, each on a fresh daemon with a fresh checkpoint
    root; every one must end in the same decisions, byte for byte.
    The last daemon is the one that is then driven.
    """
    daemon_core, _ = harness.pin_cores()
    problems: List[str] = []
    setup_samples: List[float] = []
    coldstart_samples: List[float] = []
    fixed = set()
    daemon = None
    try:
        for sample in range(setups):
            if daemon is not None:
                daemon.shutdown()
            daemon = harness.DaemonProcess(
                plan, run_dir / f"d{sample}", workers=workers,
                cpu=daemon_core,
            )
            setup_samples.append(daemon.setup_s)
            warm = frames.warm_up(daemon.connection)
            coldstart_samples.append(warm.wall_s)
            # Nothing may be writing checkpoints while they are read.
            _await_rounds(daemon, workers)
            root = daemon.checkpoint_root
            checkpoint_bytes = harness.tree_bytes(root)
            digest = checks.decision_digest(root, plan)
            fixed.add((checkpoint_bytes, digest))
        if len(fixed) > 1 and not workers:
            problems.append(
                f"{setups} warm-ups on the same statements decided "
                f"differently: {sorted(fixed)}"
            )
        cpu_before = daemon.cpu_seconds()
        loop = frames.measure(daemon.connection, seconds=seconds, count=count)
        _await_rounds(daemon, workers)
        makespan_s = time.perf_counter() - loop.sent[0]
        cpu_s = daemon.cpu_seconds() - cpu_before
        status = daemon.connection.call({"op": "status"})
        rounds = daemon.connection.call({"op": "rounds"})["rounds"]
        peak_rss_mb = daemon.peak_rss_mb()
        shutdown_s = daemon.shutdown()["shutdown_s"]
    finally:
        if daemon is not None:
            daemon.kill()

    replies, ack_problems = checks.check_acks(warm.replies + loop.replies)
    problems += ack_problems
    sent = batches_sent(plan, loop.batches)
    if not workers:
        # With a worker thread rounds coalesce, and sqlite tenants
        # cannot apply from the worker's thread.
        problems += checks.check_counters(
            plan, status, checks.sent_per_tenant(sent)
        )
        problems += checks.check_rounds(rounds)
    return Driven(
        root, setup_samples, coldstart_samples, warm, loop, replies, sent,
        status, rounds, cpu_s, peak_rss_mb, checkpoint_bytes, digest,
        makespan_s, shutdown_s, problems,
    )


def run_e2e(
    plan: Plan, frames: Frames, seconds: float, run_dir: pathlib.Path
) -> dict:
    """The untraced run: end-to-end metrics, checks and evidence."""
    driven = drive(
        plan, frames, run_dir, seconds=seconds, setups=SETUP_SAMPLES
    )
    problems = driven.problems
    loop = driven.loop
    digest_final = checks.decision_digest(driven.root, plan)
    checkpoint_bytes_final = harness.tree_bytes(driven.root)

    # Restart on the same checkpoint root: counters must survive.  The
    # restarted daemon is killed, not shut down.
    restarted = harness.DaemonProcess(
        plan, run_dir / "restart", checkpoint_root=driven.root,
        cpu=harness.pin_cores()[0],
    )
    try:
        after = restarted.connection.call({"op": "status"})
    finally:
        restarted.kill()
    problems += checks.check_restart(driven.status, after)

    ratio, ratio_problems = checks.cost_ratio(plan, driven.rounds, driven.sent)
    problems += ratio_problems

    latency = loop.latencies_ms()
    apply_latency = [
        ms
        for ms, reply in zip(latency, driven.replies[driven.warm.batches:])
        if reply.get("rounds_run", 0) >= 1
    ]
    if len(apply_latency) < MIN_ROUNDS:
        problems.append(
            f"only {len(apply_latency)} rounds in the measured phase"
        )
        apply_latency = apply_latency or [0.0]
    slowest = sorted(latency)[-max(len(latency) // 20, 1):]
    metrics = {
        "setup_s": statistics.median(driven.setup_samples),
        "coldstart_s": statistics.median(driven.coldstart_samples),
        "ingest_qps": loop.statements / loop.wall_s,
        "ack_p50_ms": harness.percentile(latency, 50),
        "ack_tail5_ms": statistics.fmean(slowest),
        "apply_mean_ms": statistics.fmean(apply_latency),
        "cpu_us_per_stmt": driven.cpu_s * 1e6 / loop.statements,
        "peak_rss_mb": driven.peak_rss_mb,
        "checkpoint_bytes": float(driven.checkpoint_bytes),
        "final_cost_ratio": ratio,
    }
    return {
        "metrics": metrics,
        "attempted": driven.attempted,
        "failed": driven.failed,
        "problems": problems,
        "evidence": {
            "setup_samples_s": driven.setup_samples,
            "coldstart_samples_s": driven.coldstart_samples,
            "restore_setup_s": restarted.setup_s,
            "batches": loop.batches,
            "statements": loop.statements,
            "wall_s": loop.wall_s,
            "stream_cycles": loop.batches / len(frames.stream),
            "rounds": len(apply_latency),
            "apply_p50_ms": harness.percentile(apply_latency, 50),
            "apply_p90_ms": harness.percentile(apply_latency, 90),
            "ack_p99_ms": harness.percentile(latency, 99),
            "cpu_s": driven.cpu_s,
            "gen_busy_share": loop.busy_s / loop.wall_s,
            "shutdown_s": driven.shutdown_s,
            "checkpoint_bytes_final": checkpoint_bytes_final,
            "decision_digest": driven.digest,
            "decision_digest_final": digest_final,
            "cores": list(harness.pin_cores()),
        },
    }


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------


def run_traced(
    plan: Plan, frames: Frames, seconds: float, run_dir: pathlib.Path
) -> dict:
    """The workload in-process with spans on, then an untraced daemon
    process on the same batches: equal decisions, and the overhead."""
    tracer = Tracer()
    counts = {"drift_removed": 0.0, "admit_wait_s": 0.0}
    root = run_dir / "traced" / "ckpt"
    root.mkdir(parents=True)
    tenants = [t.to_dict() for t in plan.tenants]

    daemon = TuningDaemon(workers=0, checkpoint_root=root)
    tracer.wrap(daemon.registry, "create", "registry.create")
    server = TracedServer(daemon, str(run_dir / "traced" / "d.sock"), tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = harness.Connection(server.socket_path)
    try:
        build_started = time.perf_counter()
        harness.load_tenants(connection, plan)
        build_s = time.perf_counter() - build_started
        registry_ms = tracer.ms("registry.create")
        instrument(daemon, tracer, counts)
        warm = frames.warm_up(connection)
        mark = tracer.mark()
        first_span = len(tracer.spans)
        counters_before = layers.public_counters(daemon)
        counts_before = dict(counts)
        loop = frames.measure(connection, seconds=seconds)
        counters_after = layers.public_counters(daemon)
        measured = tracer.since(mark, first_span)
        status = connection.call({"op": "status"})
        shutdown_started = time.perf_counter()
        connection.call({"op": "shutdown", "drain": True})
        shutdown_ms = (time.perf_counter() - shutdown_started) * 1e3
    finally:
        connection.close()
        server.close()
        thread.join(timeout=10.0)
    tracer.write(harness.WORK / f"spans-{plan.name}-{plan.seed}.jsonl")

    _, problems = checks.check_acks(warm.replies + loop.replies)
    sent = batches_sent(plan, loop.batches)
    problems += checks.check_counters(
        plan, status, checks.sent_per_tenant(sent)
    )

    # The same batches through an untraced daemon process.
    untraced = drive(plan, frames, run_dir / "untraced", count=loop.batches)
    problems += untraced.problems
    problems += checks.check_parity(untraced.root, daemon)

    metrics = layers.layer_metrics(
        measured,
        loop=loop,
        counters={
            key: counters_after[key] - counters_before[key]
            for key in counters_after
        },
        at_end=counters_after,
        counts={key: counts[key] - counts_before[key] for key in counts},
        statements=sent,
    )
    metrics.update({
        "registry.create.ms": registry_ms,
        "serve.shutdown.ms": shutdown_ms,
        "checkpoint.save.bytes": float(harness.tree_bytes(root)),
        "checkpoint.restore.ms": layers.restore_ms(tenants, root),
        "trace.overhead_pct": 100.0 * (
            loop.wall_s / untraced.loop.wall_s - 1.0
        ),
        "gen.busy_share": untraced.loop.busy_s / untraced.loop.wall_s,
    })
    return {
        "metrics": metrics,
        "attempted": warm.statements + loop.statements,
        "failed": checks.observe_failures(status),
        "problems": problems,
        "evidence": {
            "build_s": build_s,
            "batches": loop.batches,
            "traced_wall_s": loop.wall_s,
            "untraced_wall_s": untraced.loop.wall_s,
            "wrapper_share_pct": (
                100.0 * measured.wrapper_seconds() / loop.wall_s
            ),
            "decision_digest": untraced.digest,
            "spans": len(tracer.spans),
        },
    }


def run_threaded(
    plan: Plan, frames: Frames, seconds: float, run_dir: pathlib.Path
):
    """Side run: the same stream with one round-worker thread.

    Acks no longer wait for rounds, which coalesce (fewer rounds on
    the same input), so its statements per second are not comparable
    to the inline number; the makespan includes draining the rounds.
    """
    driven = drive(
        plan, frames, run_dir / "threaded", seconds=seconds, workers=1
    )
    loop = driven.loop
    return {
        "serve.threaded.ingest_qps": loop.statements / loop.wall_s,
        "serve.threaded.ack_p99_ms": harness.percentile(
            loop.latencies_ms(), 99
        ),
        "serve.threaded.rounds_completed": float(
            driven.status["rounds_completed"]
        ),
        "serve.threaded.makespan_s": driven.makespan_s,
    }, driven.problems


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def units(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def run_one(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False
) -> dict:
    """One contract run; the returned dict is what gets printed."""
    os.chdir(ROOT)
    harness.pin_cores()
    plan = build_plan(workload, seed, SMOKE_SCALE if smoke else 1.0)
    frames = Frames(plan)
    run_dir = harness.fresh_dir(f"{workload}-{seed}-{trace}-{os.getpid()}")
    if trace:
        unit_of = units("per_layer")
        result = run_traced(plan, frames, seconds, run_dir)
        threaded = dict.fromkeys(
            (name for name in unit_of if name.startswith("serve.threaded.")),
            0.0,
        )
        if len(plan.tenants) > 1:
            # The second concurrency model earns its keep only where
            # one tenant's round can overlap another tenant's ingest.
            threaded, problems = run_threaded(
                plan, frames, seconds / 2.0, run_dir
            )
            result["problems"] += problems
        result["metrics"].update(threaded)
    else:
        unit_of = units("end_to_end")
        result = run_e2e(plan, frames, seconds, run_dir)
    if set(result["metrics"]) != set(unit_of):
        raise RuntimeError(
            "metrics do not match BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(unit_of))}"
        )
    shutil.rmtree(run_dir)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit_of[name]}
            for name in unit_of
        },
        "problems": result["problems"],
        "evidence": result["evidence"],
    }


def report(result: dict) -> None:
    """Every metric by name and unit, then the contract's JSON line."""
    print(
        f"# {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:16.4f} {metric['unit']}")
    for key, value in result["evidence"].items():
        print(f"# {key}: {value}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a stream of a few thousand statements (for the tests)",
    )
    args = parser.parse_args(argv)
    result = run_one(
        args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke
    )
    report(result)
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
