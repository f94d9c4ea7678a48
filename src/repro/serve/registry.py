"""The tenant registry: who owns each tuning context.

One daemon process hosts many tenants; each tenant is a fully
independent tuning world — its own backend and its own
:class:`~repro.core.advisor.AutoIndexAdvisor` (and therefore its own
template store, estimator, rng stream, safety controller with
per-tenant regret budget and ledger), both built by
:meth:`~repro.serve.config.TenantSpec.build`, and its own
:class:`~repro.core.lifecycle.TuningSession` deciding when rounds are
due.  Nothing is shared between tenants except the process.

The registry also owns per-tenant persistence: each tenant
checkpoints into its namespace under the daemon's checkpoint root
(``<root>/tenant-<id>/``, see :func:`repro.core.checkpoint.
tenant_namespace`) with the advisor's crash-safe component writes
plus a ``serve.json`` component recording the tenant spec, lifecycle
counters, normalized round reports, and the applied index set — the
surface the offline ``python -m repro.serve verify`` parity check
replays against.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List

from repro.core import checkpoint
from repro.core.lifecycle import TuningSession
from repro.serve.config import TenantSpec

__all__ = ["SERVE_COMPONENT", "TenantRuntime", "TenantRegistry"]

SERVE_COMPONENT = "serve.json"


class TenantRuntime:
    """One tenant's live state inside the daemon.

    ``lock`` serializes everything that mutates the tenant — ingest,
    rounds, review verdicts, checkpointing — so a tenant is always
    single-writer even when the daemon runs rounds on worker threads.
    Different tenants' locks are independent: a long round on one
    tenant never blocks ingest for another.
    """

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.lock = threading.RLock()
        self.backend, self.advisor = spec.build()
        self.session = TuningSession(
            self.advisor,
            policy=spec.round_policy(),
            budget=spec.make_round_budget(),
        )
        self.checkpoints_written = 0

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Point-in-time counters for the status API."""
        with self.lock:
            advisor = self.advisor
            regret = advisor.regret_summary()
            return {
                "tenant_id": self.tenant_id,
                "backend": self.spec.backend.kind,
                "templates": len(advisor.store),
                "template_capacity": advisor.store.capacity,
                "indexes": len(self.backend.index_defs()),
                "pending_recommendations": len(
                    advisor.pending_recommendations()
                ),
                "observe_failures": advisor.observe_failures,
                "checkpoints_written": self.checkpoints_written,
                "regret": regret,
                "caches": self._cache_status(),
                **self.session.counters(),
            }

    def _cache_status(self) -> dict:
        """Live what-if cache counters (not checkpointed, not reported)."""
        estimator = self.advisor.estimator
        tiers = estimator.cache_stats()
        return {
            "estimator_cost": tiers["cost"].as_dict(),
            "estimator_features": tiers["features"].as_dict(),
            "planner": self.backend.plan_cache_stats().as_dict(),
            "plans_computed": estimator.plans_computed,
        }

    def normalized_reports(self) -> List[dict]:
        with self.lock:
            return [
                report.to_dict()
                for report in self.advisor.tuning_history
            ]

    def applied_index_keys(self) -> List[str]:
        """The current index configuration, as sorted stable keys."""
        with self.lock:
            return sorted(
                "|".join(map(str, d.key))
                for d in self.backend.index_defs()
            )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def serve_state(self) -> dict:
        """The ``serve.json`` payload for this tenant."""
        with self.lock:
            return {
                "spec": self.spec.to_dict(),
                "counters": self.session.counters(),
                "reports": self.normalized_reports(),
                "applied_indexes": self.applied_index_keys(),
            }

    def save(self, root) -> None:
        """Checkpoint this tenant into its namespace under ``root``."""
        with self.lock:
            directory = checkpoint.tenant_namespace(root, self.tenant_id)
            self.advisor.save_state(directory)
            checkpoint.update_component(
                directory,
                SERVE_COMPONENT,
                json.dumps(self.serve_state()).encode("utf-8"),
                faults=self.backend.faults,
            )
            self.checkpoints_written += 1

    def restore(self, root) -> bool:
        """Restore advisor state from the tenant's namespace, if any.

        Returns True when something was loaded.  Lifecycle counters
        are restored from ``serve.json`` so a restarted daemon does
        not re-fire rounds for statements already tuned against.
        """
        with self.lock:
            directory = checkpoint.tenant_namespace(root, self.tenant_id)
            report = self.advisor.load_state(directory)
            loaded = any(
                component.status in ("loaded", "fallback")
                for component in report.components
            )
            state = checkpoint.read_component(
                directory,
                SERVE_COMPONENT,
                lambda blob: json.loads(blob.decode("utf-8")),
                checkpoint.read_manifest(directory),
                checkpoint.CheckpointLoadReport(),
                faults=self.backend.faults,
            )
            if isinstance(state, dict):
                counters = state.get("counters", {})
                self.session.ingested = int(
                    counters.get("ingested", 0)
                )
                rounds = int(counters.get("rounds_completed", 0))
                self.session.rounds_completed = rounds
                self.session.budget.spent = rounds
                pending = int(counters.get("pending_statements", 0))
                self.session.ingested_at_last_round = (
                    self.session.ingested - pending
                )
                loaded = True
            return loaded


class TenantRegistry:
    """All tenants of one daemon, with per-tenant checkpoint roots.

    Owns tenant creation (including restore-from-checkpoint when the
    tenant's namespace already exists under ``checkpoint_root``),
    lookup, and enumeration.  Round *scheduling* deliberately lives
    elsewhere (:mod:`repro.serve.scheduler`): the registry answers
    "who owns this context", the scheduler answers "when may its
    round run".
    """

    def __init__(self, checkpoint_root=None):
        self.checkpoint_root = checkpoint_root
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantRuntime] = {}

    def create(self, spec: TenantSpec) -> TenantRuntime:
        """Create (and maybe restore) a tenant; id must be new."""
        runtime = TenantRuntime(spec)
        with self._lock:
            if spec.tenant_id in self._tenants:
                raise ValueError(
                    f"tenant {spec.tenant_id!r} already exists"
                )
            self._tenants[spec.tenant_id] = runtime
        if self.checkpoint_root is not None:
            runtime.restore(self.checkpoint_root)
        return runtime

    def get(self, tenant_id: str) -> TenantRuntime:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise KeyError(
                    f"unknown tenant {tenant_id!r}"
                ) from None

    def has(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def tenant_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def runtimes(self) -> List[TenantRuntime]:
        with self._lock:
            return [
                self._tenants[tid] for tid in sorted(self._tenants)
            ]

    def save_all(self) -> int:
        """Checkpoint every tenant; returns how many were saved."""
        if self.checkpoint_root is None:
            return 0
        saved = 0
        for runtime in self.runtimes():
            runtime.save(self.checkpoint_root)
            saved += 1
        return saved
