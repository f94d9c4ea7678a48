"""Per-tenant configuration for the streaming tuning daemon.

A :class:`TenantSpec` is the complete description of one tenant: the
backend it pins (kind + seed + template-store shard budget, via
:class:`~repro.ports.factory.BackendSpec`), the advisor knobs, the
round-firing policy and round budget, the safety policy (per-tenant
regret budget / apply mode), and optionally a workload generator that
seeds the tenant's schema and data at creation time.
:meth:`TenantSpec.build` is the one place a tenant's backend and
advisor are constructed from it — the daemon's registry and the
library-path parity replay both call it.

Specs round-trip through dicts (for the daemon's wire protocol and
the per-tenant ``serve.json`` checkpoint component) and parse from
the CLI's compact ``name,key=value,...`` spelling::

    alpha,backend=sqlite,seed=11,capacity=512,workload=banking
    beta,backend=memory,round-every=200,regret-bound=500
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.advisor import AutoIndexAdvisor
from repro.core.lifecycle import RoundBudget, RoundPolicy
from repro.core.safety import SafetyPolicy
from repro.core.templates import DEFAULT_TEMPLATE_CAPACITY
from repro.ports.backend import TuningBackend
from repro.ports.factory import (
    BackendSpec,
    DEFAULT_BACKEND,
    DEFAULT_SEED,
    create_backend,
)
from repro.workloads import (
    BankingWorkload,
    EpidemicWorkload,
    TpccWorkload,
    WorkloadGenerator,
)

__all__ = [
    "TenantSpec",
    "make_generator",
    "parse_tenant_spec",
    "workload_names",
]


@dataclass(frozen=True)
class TenantSpec:
    """Everything the registry needs to build (or rebuild) a tenant."""

    tenant_id: str
    backend: BackendSpec = field(default_factory=BackendSpec)
    safety: SafetyPolicy = field(default_factory=SafetyPolicy)
    #: Workload generator seeding schema + data at creation; ``None``
    #: starts the tenant on an empty backend (caller issues DDL).
    workload: Optional[str] = None
    workload_seed: int = 5
    #: Round-firing policy for the tenant's session.
    round_every: int = 500
    min_statements: int = 1
    force_rounds: bool = True
    trigger_threshold: float = 0.1
    #: Max rounds this tenant may ever consume (None = unlimited).
    round_budget: Optional[int] = None
    #: Advisor knobs (template capacity comes from backend.shard_budget).
    storage_budget: Optional[int] = None
    mcts_iterations: int = 60
    rollouts: int = 3
    top_templates: int = 120

    def round_policy(self) -> RoundPolicy:
        return RoundPolicy(
            every_statements=self.round_every,
            min_statements=self.min_statements,
            force=self.force_rounds,
            trigger_threshold=self.trigger_threshold,
        )

    def make_round_budget(self) -> RoundBudget:
        return RoundBudget(limit=self.round_budget)

    def build(self) -> Tuple[TuningBackend, AutoIndexAdvisor]:
        """A fresh backend (seeded with the workload, if any) and the
        advisor tuning it, configured from this spec alone."""
        backend = create_backend(self.backend.kind)
        if self.workload is not None:
            make_generator(self.workload, seed=self.workload_seed).build(
                backend
            )
        capacity = self.backend.shard_budget
        advisor = AutoIndexAdvisor(
            backend,
            storage_budget=self.storage_budget,
            template_capacity=(
                capacity if capacity is not None
                else DEFAULT_TEMPLATE_CAPACITY
            ),
            mcts_iterations=self.mcts_iterations,
            rollouts=self.rollouts,
            top_templates=self.top_templates,
            seed=self.backend.seed,
            safety=self.safety,
        )
        return backend, advisor

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant_id": self.tenant_id,
            "backend": {
                "kind": self.backend.kind,
                "seed": self.backend.seed,
                "shard_budget": self.backend.shard_budget,
            },
            "safety": self.safety.to_dict(),
            "workload": self.workload,
            "workload_seed": self.workload_seed,
            "round_every": self.round_every,
            "min_statements": self.min_statements,
            "force_rounds": self.force_rounds,
            "trigger_threshold": self.trigger_threshold,
            "round_budget": self.round_budget,
            "storage_budget": self.storage_budget,
            "mcts_iterations": self.mcts_iterations,
            "rollouts": self.rollouts,
            "top_templates": self.top_templates,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TenantSpec":
        backend = data.get("backend", {})
        shard_budget = backend.get("shard_budget")  # type: ignore[union-attr]
        storage = data.get("storage_budget")
        budget = data.get("round_budget")
        return cls(
            tenant_id=str(data["tenant_id"]),
            backend=BackendSpec(
                kind=str(backend.get("kind", DEFAULT_BACKEND)),  # type: ignore[union-attr]
                seed=int(backend.get("seed", DEFAULT_SEED)),  # type: ignore[union-attr]
                shard_budget=(
                    int(shard_budget) if shard_budget is not None else None  # type: ignore[arg-type]
                ),
            ),
            safety=SafetyPolicy.from_dict(
                data.get("safety", {})  # type: ignore[arg-type]
            ),
            workload=(
                str(data["workload"])
                if data.get("workload") is not None
                else None
            ),
            workload_seed=int(data.get("workload_seed", 5)),  # type: ignore[arg-type]
            round_every=int(data.get("round_every", 500)),  # type: ignore[arg-type]
            min_statements=int(data.get("min_statements", 1)),  # type: ignore[arg-type]
            force_rounds=bool(data.get("force_rounds", True)),
            trigger_threshold=float(
                data.get("trigger_threshold", 0.1)  # type: ignore[arg-type]
            ),
            round_budget=(
                int(budget) if budget is not None else None  # type: ignore[arg-type]
            ),
            storage_budget=(
                int(storage) if storage is not None else None  # type: ignore[arg-type]
            ),
            mcts_iterations=int(data.get("mcts_iterations", 60)),  # type: ignore[arg-type]
            rollouts=int(data.get("rollouts", 3)),  # type: ignore[arg-type]
            top_templates=int(data.get("top_templates", 120)),  # type: ignore[arg-type]
        )


# ---------------------------------------------------------------------------
# workload seeding
# ---------------------------------------------------------------------------

#: Daemon-scale workload constructors: the laptop-scale parameters the
#: test suites use, so tenant creation stays interactive even with
#: dozens of tenants in one process.
_WORKLOADS = {
    "banking": lambda seed: BankingWorkload(
        accounts=150, txn_rows=600, product_rows=30, seed=seed
    ),
    "tpcc": lambda seed: TpccWorkload(scale=1, seed=seed),
    "epidemic": lambda seed: EpidemicWorkload(people=800, seed=seed),
}


def workload_names() -> tuple:
    return tuple(sorted(_WORKLOADS))


def make_generator(name: str, seed: int = 5) -> WorkloadGenerator:
    """Daemon-scale workload generator by name."""
    try:
        ctor = _WORKLOADS[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise ValueError(
            f"unknown workload {name!r} (known: {known})"
        ) from None
    return ctor(seed)


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------

_SPEC_KEYS = {
    "backend",
    "seed",
    "capacity",
    "workload",
    "workload-seed",
    "round-every",
    "min-statements",
    "round-budget",
    "apply-mode",
    "regret-bound",
    "regret-headroom",
    "storage-budget",
    "mcts-iterations",
    "top-templates",
}


def parse_tenant_spec(text: str) -> TenantSpec:
    """Parse the CLI's ``name,key=value,...`` tenant spelling.

    Example::

        alpha,backend=sqlite,seed=11,capacity=512,workload=banking,
        round-every=400,regret-bound=500
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or "=" in parts[0]:
        raise ValueError(
            f"tenant spec must start with the tenant id: {text!r}"
        )
    spec = TenantSpec(tenant_id=parts[0])
    backend = spec.backend
    safety = spec.safety
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            known = ", ".join(sorted(_SPEC_KEYS))
            raise ValueError(
                f"unknown tenant spec key {key!r} (known: {known})"
            )
        if key == "backend":
            backend = replace(backend, kind=value)
        elif key == "seed":
            backend = replace(backend, seed=int(value))
        elif key == "capacity":
            backend = replace(backend, shard_budget=int(value))
        elif key == "workload":
            spec = replace(spec, workload=value)
        elif key == "workload-seed":
            spec = replace(spec, workload_seed=int(value))
        elif key == "round-every":
            spec = replace(spec, round_every=int(value))
        elif key == "min-statements":
            spec = replace(spec, min_statements=int(value))
        elif key == "round-budget":
            spec = replace(spec, round_budget=int(value))
        elif key == "apply-mode":
            safety = replace(safety, apply_mode=value)
        elif key == "regret-bound":
            safety = replace(safety, regret_bound=float(value))
        elif key == "regret-headroom":
            safety = replace(safety, regret_headroom=float(value))
        elif key == "storage-budget":
            spec = replace(spec, storage_budget=int(value))
        elif key == "mcts-iterations":
            spec = replace(spec, mcts_iterations=int(value))
        elif key == "top-templates":
            spec = replace(spec, top_templates=int(value))
    return replace(spec, backend=backend, safety=safety)
