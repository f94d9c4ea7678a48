"""Chaos-mode benchmark: the tuning runtime under injected faults.

``python -m repro.bench --faults`` drives the full advisor loop on
TPC-C while a seeded :class:`~repro.engine.faults.FaultPlan` fails a
fraction of estimator predictions and index builds, and checks the
resilience invariants end to end:

* **liveness** — every tuning round completes without an unhandled
  exception (a degraded, skipped round is fine; a crash is not);
* **atomicity** — after every round the catalog equals exactly what
  the round's report claims (``before − dropped ∪ created``): a
  mid-apply failure must roll back completely, never leave a partial
  configuration;
* **replayability** — the same seed reproduces the chaos run
  bit-identically (identical recommendations, costs, and counters);
* **fault-free determinism** — with injection disabled the run is
  bit-identical across repeats: the resilience machinery adds no
  nondeterminism to the production path.

The run prints per-round resilience counters (retries, fallbacks,
rollbacks, deadline hits) and per-point fault statistics, then a
PASS/FAIL verdict over the invariants.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import prepare_database
from repro.core.advisor import AutoIndexAdvisor
from repro.core.safety import SafetyPolicy
from repro.engine.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    TRANSIENT,
)
from repro.ports.factory import DEFAULT_BACKEND
from repro.workloads.tpcc import TpccWorkload

#: The acceptance scenario: fail model predictions and index builds.
DEFAULT_POINTS = ("estimator.predict", "index.build")

#: Seeds the regret scenario must hold its bound across.
REGRET_SEEDS = (11, 23, 47)

#: Default cumulative-regret bound for ``--faults --regret``,
#: calibrated to the TPC-C scale-1 loop: large enough that honest
#: tuning never brushes it, small enough that the adversarial
#: estimator's inflated claims are actually constrained by it.
DEFAULT_REGRET_BOUND = 250.0


def _run_loop(
    seed: int,
    rounds: int,
    queries_per_round: int,
    injector: Optional[FaultInjector],
    mcts_iterations: int = 30,
    backend: str = DEFAULT_BACKEND,
) -> Dict:
    """One full observe→execute→tune loop; returns a comparable summary.

    Everything in the returned structure is a pure function of the
    inputs (query seeds, plan seed), so two calls with equal arguments
    must produce equal summaries — that equality *is* the determinism
    check.
    """
    generator = TpccWorkload(scale=1, seed=seed)
    db = prepare_database(generator, faults=injector, backend=backend)
    advisor = AutoIndexAdvisor(
        db, mcts_iterations=mcts_iterations, seed=seed
    )
    summaries: List[Dict] = []
    for round_no in range(rounds):
        client_errors = 0
        for query in generator.queries(
            queries_per_round, seed=seed + 100 + round_no
        ):
            try:
                db.execute(query.sql)
            except FaultError:
                # A client-visible statement failure; the workload
                # moves on — what must survive is the tuner.
                client_errors += 1
                continue
            advisor.observe(query.sql)
        before = {d.key for d in db.index_defs()}
        report = advisor.tune()
        after = {d.key for d in db.index_defs()}
        expected = (before - {d.key for d in report.dropped}) | {
            d.key for d in report.created
        }
        summaries.append(
            {
                "round": round_no,
                "created": sorted(str(d) for d in report.created),
                "dropped": sorted(str(d) for d in report.dropped),
                "estimated_benefit": report.estimated_benefit,
                "retries": report.retries,
                "fallbacks": report.fallbacks,
                "rolled_back": report.rolled_back,
                "deadline_hit": report.deadline_hit,
                "degraded": report.degraded,
                "skipped": report.skipped,
                "client_errors": client_errors,
                "atomic": after == expected,
            }
        )
    return {
        "rounds": summaries,
        "final_indexes": sorted(
            str(d) for d in db.index_defs()
        ),
        "observe_failures": advisor.observe_failures,
        "fault_stats": injector.stats() if injector else {},
    }


def run_chaos(
    seed: int = 11,
    rate: float = 0.2,
    rounds: int = 4,
    queries_per_round: int = 300,
    points: Sequence[str] = DEFAULT_POINTS,
    kind: str = TRANSIENT,
    out_path: Optional[str] = None,
    backend: str = DEFAULT_BACKEND,
) -> Dict:
    """Run the chaos scenario plus its control runs; verify invariants."""

    def injector() -> FaultInjector:
        return FaultPlan.chaos(
            seed=seed, rate=rate, points=points, kind=kind
        ).injector()

    chaos = _run_loop(
        seed, rounds, queries_per_round, injector(), backend=backend
    )
    replay = _run_loop(
        seed, rounds, queries_per_round, injector(), backend=backend
    )
    clean_a = _run_loop(
        seed, rounds, queries_per_round, None, backend=backend
    )
    clean_b = _run_loop(
        seed, rounds, queries_per_round, None, backend=backend
    )

    all_atomic = all(
        r["atomic"] for r in chaos["rounds"] + clean_a["rounds"]
    )
    report = {
        "seed": seed,
        "rate": rate,
        "kind": kind,
        "points": list(points),
        "backend": backend,
        "rounds": rounds,
        "queries_per_round": queries_per_round,
        "chaos": chaos,
        "clean": clean_a,
        "all_rounds_atomic": all_atomic,
        "replay_identical": chaos == replay,
        "faults_off_identical": clean_a == clean_b,
    }
    report["ok"] = (
        all_atomic
        and report["replay_identical"]
        and report["faults_off_identical"]
    )
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
    return report


def render_chaos(report: Dict) -> List[str]:
    """Human-readable lines for the chaos report."""
    lines = [
        f"seed={report['seed']} rate={report['rate']} "
        f"kind={report['kind']} points={','.join(report['points'])} "
        f"backend={report.get('backend', DEFAULT_BACKEND)}"
    ]
    for row in report["chaos"]["rounds"]:
        changes = (
            f"+{len(row['created'])}/-{len(row['dropped'])} indexes"
        )
        flags = []
        if row["retries"]:
            flags.append(f"{row['retries']} retries")
        if row["fallbacks"]:
            flags.append(f"{row['fallbacks']} fallbacks")
        if row["rolled_back"]:
            flags.append(f"{row['rolled_back']} rolled back")
        if row["deadline_hit"]:
            flags.append("deadline")
        if row["skipped"]:
            flags.append("skipped")
        if row["client_errors"]:
            flags.append(f"{row['client_errors']} client errors")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        atomic = "ok" if row["atomic"] else "PARTIAL APPLY"
        lines.append(
            f"round {row['round']}: {changes}, catalog {atomic}{suffix}"
        )
    for point, stats in report["chaos"]["fault_stats"].items():
        lines.append(
            f"fault {point}: {stats['fired']}/{stats['visits']} "
            "fired/visits"
        )
    lines.append(
        "invariants: "
        f"atomic={report['all_rounds_atomic']} "
        f"replay_identical={report['replay_identical']} "
        f"faults_off_identical={report['faults_off_identical']}"
    )
    lines.append("PASS" if report["ok"] else "FAIL")
    return lines


# ---------------------------------------------------------------------------
# regret mode: adversarial estimator vs. the regret bound
# ---------------------------------------------------------------------------


class AdversarialBenefitModel:
    """Deterministic worst-case estimator for the regret scenario.

    The analytic cost is divided by ``1 + optimism · num_indexes``
    (column 4 of the feature vector), so every additional index makes
    a plan look cheaper whether or not it helps: each apply's
    predicted benefit is systematically inflated relative to what the
    model-independent shadow costing later observes. This is the
    misprediction class *DBA bandits* guards against — and it is a
    pure function of the features, so the whole scenario replays
    bit-identically.
    """

    trained = True

    def __init__(self, optimism: float = 0.35):
        self.optimism = optimism

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        base = matrix[:, 0] + matrix[:, 1] + matrix[:, 2]
        return base / (1.0 + self.optimism * matrix[:, 4])

    def predict_one(self, features) -> float:
        return float(self.predict(features.as_array()[None, :])[0])


def _run_regret_loop(
    seed: int,
    rounds: int,
    queries_per_round: int,
    regret_bound: float,
    optimism: float,
    mcts_iterations: int = 30,
    backend: str = DEFAULT_BACKEND,
) -> Dict:
    """One advisor lifetime under the adversarial estimator."""
    generator = TpccWorkload(scale=1, seed=seed)
    db = prepare_database(generator, backend=backend)
    advisor = AutoIndexAdvisor(
        db,
        mcts_iterations=mcts_iterations,
        seed=seed,
        safety=SafetyPolicy(regret_bound=regret_bound),
    )
    # Swap in the adversary after construction: the advisor tunes
    # with a model that systematically over-promises.
    advisor.estimator.model = AdversarialBenefitModel(optimism)
    advisor.estimator.clear_cache()
    summaries: List[Dict] = []
    for round_no in range(rounds):
        for query in generator.queries(
            queries_per_round, seed=seed + 100 + round_no
        ):
            db.execute(query.sql)
            advisor.observe(query.sql)
        report = advisor.tune()
        ledger = advisor.safety.ledger
        summaries.append(
            {
                "round": round_no,
                "created": sorted(str(d) for d in report.created),
                "dropped": sorted(str(d) for d in report.dropped),
                "gated": report.gated,
                "gate_reason": report.gate_reason,
                "queued": report.queued,
                "shadow_margin": report.shadow_margin,
                "cumulative_regret": ledger.cumulative_regret,
                "pending_exposure": ledger.pending_exposure(),
            }
        )
    summary = advisor.regret_summary()
    return {
        "rounds": summaries,
        "final_indexes": sorted(str(d) for d in db.index_defs()),
        "regret_summary": summary,
        "queue_pending": len(advisor.safety.queue.pending()),
    }


def run_regret(
    seeds: Sequence[int] = REGRET_SEEDS,
    regret_bound: float = DEFAULT_REGRET_BOUND,
    rounds: int = 6,
    queries_per_round: int = 250,
    optimism: float = 0.35,
    out_path: Optional[str] = None,
    backend: str = DEFAULT_BACKEND,
) -> Dict:
    """The ``--faults --regret`` scenario.

    For each seed the advisor runs a full lifetime against an
    estimator that systematically inflates index benefit, twice. The
    invariants:

    * **bounded** — the ledger's cumulative observed regret never
      exceeds the configured bound (once the budget is exhausted the
      advisor degrades to shadow-only instead of gambling);
    * **bit-identical replay** — the two runs per seed produce equal
      summaries (the safety layer adds no nondeterminism);
    * **engaged** — the gate actually fired somewhere (a bound nobody
      hits is not evidence of anything).
    """
    per_seed: List[Dict] = []
    for seed in seeds:
        first = _run_regret_loop(
            seed, rounds, queries_per_round, regret_bound, optimism,
            backend=backend,
        )
        second = _run_regret_loop(
            seed, rounds, queries_per_round, regret_bound, optimism,
            backend=backend,
        )
        regret = first["regret_summary"]["cumulative_regret"]
        per_seed.append(
            {
                "seed": seed,
                "cumulative_regret": regret,
                "within_bound": regret <= regret_bound,
                "replay_identical": first == second,
                "gated_rounds": first["regret_summary"]["gated_rounds"],
                "shadow_only": first["regret_summary"]["shadow_only"],
                "queue_pending": first["queue_pending"],
                "rounds": first["rounds"],
            }
        )
    report = {
        "seeds": list(seeds),
        "regret_bound": regret_bound,
        "rounds": rounds,
        "queries_per_round": queries_per_round,
        "optimism": optimism,
        "backend": backend,
        "per_seed": per_seed,
        "all_within_bound": all(s["within_bound"] for s in per_seed),
        "all_replay_identical": all(
            s["replay_identical"] for s in per_seed
        ),
        "gate_engaged": any(s["gated_rounds"] > 0 for s in per_seed),
    }
    report["ok"] = (
        report["all_within_bound"]
        and report["all_replay_identical"]
        and report["gate_engaged"]
    )
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2)
    return report


def render_regret(report: Dict) -> List[str]:
    """Human-readable lines for the regret report."""
    lines = [
        f"bound={report['regret_bound']:,.0f} "
        f"optimism={report['optimism']} rounds={report['rounds']} "
        f"backend={report['backend']}"
    ]
    for row in report["per_seed"]:
        posture = "shadow-only" if row["shadow_only"] else "applying"
        lines.append(
            f"seed {row['seed']}: regret "
            f"{row['cumulative_regret']:,.1f} "
            f"({'within' if row['within_bound'] else 'EXCEEDS'} bound), "
            f"{row['gated_rounds']} gated rounds, "
            f"{row['queue_pending']} queued, now {posture}, "
            f"replay={'ok' if row['replay_identical'] else 'DIVERGED'}"
        )
    lines.append(
        "invariants: "
        f"within_bound={report['all_within_bound']} "
        f"replay_identical={report['all_replay_identical']} "
        f"gate_engaged={report['gate_engaged']}"
    )
    lines.append("PASS" if report["ok"] else "FAIL")
    return lines
