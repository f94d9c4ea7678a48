"""The four benchmark workloads: tenants to build and statements to send.

A :class:`Plan` is everything one run needs that depends only on the
workload name, the seed and the size: the tenant list the daemon
process builds (spec + which generator loads its schema and data),
and the statement stream as ``(tenant_id, [sql, ...])`` batches — a
fixed warm-up prefix, then the measured stream, which the closed loop
cycles if it reaches the end before the time is up.

The program under test receives only the generated statements.  What
a workload *is* — schemas, statement shapes, the phase schedule, the
tenant mix — is fixed (drawn from ``random.Random(STRUCTURE)``); the
run's ``seed`` draws the statement instances: literals, which shape
comes next, the order of arrivals.  Two seeds are two samples of the
same workload, so a metric that differs between seeds by more than it
differs between runs of one seed is measuring the sample.

Why these four (the README has a paragraph each):

* ``tpcc_steady``     27 templates ≪ raw-key cache: the ingest hit path.
* ``adhoc_churn``     distinct templates ≫ raw-key cache and store
                      capacity: the ingest miss/evict/drift path, and
                      rounds that really search and swap indexes.
* ``banking_fleet``   12 tenants, two backends: registry, scheduler,
                      per-tenant checkpoints, sqlite DDL.
* ``tpcds_budgeted``  31 multi-join report shapes under a storage
                      budget: rounds are ≥90% of the wall time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ports.factory import BackendSpec
from repro.serve.config import TenantSpec
from repro.workloads import (
    BankingWorkload,
    EpidemicWorkload,
    TpccWorkload,
    TpcdsWorkload,
    WorkloadGenerator,
)

__all__ = ["GENERATORS", "NAMES", "Plan", "Tenant", "build_plan", "make_generator"]

Batch = Tuple[str, List[str]]

#: Seeds everything that defines a workload rather than samples it.
STRUCTURE = 20220509

GENERATORS = {
    "banking": BankingWorkload,
    "epidemic": EpidemicWorkload,
    "tpcc": TpccWorkload,
    "tpcds": TpcdsWorkload,
}


def make_generator(kind: str, args: Dict[str, int]) -> WorkloadGenerator:
    return GENERATORS[kind](**args)


@dataclass(frozen=True)
class Tenant:
    """One tenant: its daemon spec and the generator that loads it."""

    spec: TenantSpec
    kind: str
    args: Dict[str, int]

    def generator(self) -> WorkloadGenerator:
        return make_generator(self.kind, self.args)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "kind": self.kind,
            "args": self.args,
        }


@dataclass
class Plan:
    name: str
    seed: int
    tenants: List[Tenant]
    warmup: List[Batch]
    stream: List[Batch]

    def tenant(self, tenant_id: str) -> Tenant:
        for tenant in self.tenants:
            if tenant.spec.tenant_id == tenant_id:
                return tenant
        raise KeyError(tenant_id)


def _batches(tenant_id: str, statements: Sequence[str], size: int) -> List[Batch]:
    return [
        (tenant_id, list(statements[i : i + size]))
        for i in range(0, len(statements), size)
    ]


def _spec(tenant_id: str, kind: str = "memory", **knobs) -> TenantSpec:
    return TenantSpec(
        tenant_id=tenant_id, backend=BackendSpec(kind=kind), **knobs
    )


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


# ---------------------------------------------------------------------------
# tpcc_steady
# ---------------------------------------------------------------------------


def _tpcc_steady(seed: int, scale: float) -> Plan:
    args = {"scale": 10}
    tenant = Tenant(
        _spec("tpcc", round_every=5000, force_rounds=False), "tpcc", args
    )
    warm = 20000
    pool = max(int(200000 * scale), 2 * warm)
    sql = [q.sql for q in tenant.generator().queries(warm + pool, seed=seed)]
    return Plan(
        "tpcc_steady",
        seed,
        [tenant],
        _batches("tpcc", sql[:warm], 200),
        _batches("tpcc", sql[warm:], 200),
    )


# ---------------------------------------------------------------------------
# adhoc_churn
# ---------------------------------------------------------------------------

_PROD_COLUMNS = (
    ("row_id", "int", 300),
    ("acct_id", "int", 1500),
    ("attr_a", "int", 100),
    ("attr_b", "int", 100),
    ("attr_c", "text", 13),
    ("amount", "float", 1000),
    ("updated_day", "int", 720),
)
_OPS = ("=", "<", "between", "in")


def _literal(rng: random.Random, ctype: str, domain: int) -> str:
    if ctype == "text":
        return f"'v{rng.randrange(domain)}'"
    if ctype == "float":
        return f"{rng.random() * domain:.2f}"
    return str(rng.randrange(domain))


class _AdhocTemplate:
    """One ad-hoc statement shape; ``render`` fills fresh literals."""

    def __init__(self, rng: random.Random, table: str):
        self.table = table
        roll = rng.random()
        self.kind = (
            "update" if roll < 0.10 else "insert" if roll < 0.15
            else "join" if roll < 0.30 else "select"
        )
        names = [c[0] for c in _PROD_COLUMNS]
        self.select = rng.sample(names, rng.randrange(1, 4))
        self.preds = [
            (column, rng.choice(_OPS if column[1] != "text" else ("=", "in")))
            for column in rng.sample(_PROD_COLUMNS, rng.randrange(1, 4))
        ]
        self.order = rng.choice(names) if rng.random() < 0.3 else None
        self.set_column = rng.choice(("attr_a", "attr_b", "updated_day"))

    def _where(self, rng: random.Random, prefix: str = "") -> str:
        parts = []
        for (name, ctype, domain), op in self.preds:
            column = prefix + name
            if op == "between":
                low = rng.randrange(domain)
                parts.append(f"{column} BETWEEN {low} AND {low + 5}")
            elif op == "in":
                values = ", ".join(
                    _literal(rng, ctype, domain) for _ in range(3)
                )
                parts.append(f"{column} IN ({values})")
            else:
                parts.append(f"{column} {op} {_literal(rng, ctype, domain)}")
        return " AND ".join(parts)

    def render(self, rng: random.Random) -> str:
        table = self.table
        if self.kind == "insert":
            row = ", ".join(
                _literal(rng, ctype, domain * 1000 if name == "row_id" else domain)
                for name, ctype, domain in _PROD_COLUMNS
            )
            columns = ", ".join(c[0] for c in _PROD_COLUMNS)
            return f"INSERT INTO {table} ({columns}) VALUES ({row})"
        if self.kind == "update":
            return (
                f"UPDATE {table} SET {self.set_column} = "
                f"{rng.randrange(100)} WHERE {self._where(rng)}"
            )
        if self.kind == "join":
            select = ", ".join(f"{table}.{c}" for c in self.select)
            sql = (
                f"SELECT {select}, account.balance FROM {table}, account "
                f"WHERE {table}.acct_id = account.acct_id "
                f"AND {self._where(rng, table + '.')}"
            )
        else:
            sql = (
                f"SELECT {', '.join(self.select)} FROM {table} "
                f"WHERE {self._where(rng)}"
            )
        if self.order is not None:
            prefix = f"{table}." if self.kind == "join" else ""
            sql += f" ORDER BY {prefix}{self.order}"
        return sql


def adhoc_phase(
    phase: int, rng: random.Random, count: int, templates: int,
    hot_tables: int,
) -> List[str]:
    """Phase number ``phase``: ``count`` statements drawn Zipf(0.9)
    from the phase's own ``templates`` ad-hoc shapes over its
    ``hot_tables`` product tables."""
    structure = random.Random(STRUCTURE + phase)
    tables = [f"prod_{p}" for p in structure.sample(range(120), hot_tables)]
    shapes = [
        _AdhocTemplate(structure, structure.choice(tables))
        for _ in range(templates)
    ]
    picks = rng.choices(shapes, weights=_zipf_weights(templates, 0.9), k=count)
    return [shape.render(rng) for shape in picks]


def _adhoc_churn(seed: int, scale: float) -> Plan:
    args = {"accounts": 1500, "txn_rows": 6000, "product_rows": 300}
    tenant = Tenant(
        _spec("adhoc", round_every=500, top_templates=40, mcts_iterations=20),
        "banking", args,
    )
    rng = random.Random(seed * 7919 + 1)
    per_phase = 6000
    phases = max(int(30 * scale), 3)
    sql: List[str] = []
    for phase in range(phases):
        sql.extend(adhoc_phase(phase, rng, per_phase, 2000, 12))
    warm = 5000
    return Plan(
        "adhoc_churn",
        seed,
        [tenant],
        _batches("adhoc", sql[:warm], 100),
        _batches("adhoc", sql[warm:], 100),
    )


# ---------------------------------------------------------------------------
# banking_fleet
# ---------------------------------------------------------------------------


def _fleet_tenants() -> List[Tenant]:
    """12 tenants, listed in popularity order (Zipf rank = position).

    Kinds and backends alternate down the ranking, so the hot
    tenants are one of each.
    """
    knobs = {"round_every": 1000, "mcts_iterations": 20}

    def banking(i: int, backend: str) -> Tenant:
        return Tenant(
            _spec(f"bank{i}", backend, **knobs),
            "banking",
            {"accounts": 400, "txn_rows": 1600, "product_rows": 80,
             "seed": 31 + i},
        )

    def tpcc(i: int, backend: str) -> Tenant:
        return Tenant(
            _spec(f"tpcc{i}", backend, **knobs), "tpcc",
            {"scale": 2, "seed": 11 + i},
        )

    def epidemic(i: int) -> Tenant:
        return Tenant(
            _spec(f"epi{i}", "memory", **knobs), "epidemic",
            {"people": 8000, "seed": 7 + i},
        )

    return [
        banking(0, "memory"), tpcc(0, "memory"), banking(1, "sqlite"),
        epidemic(0), tpcc(1, "sqlite"), banking(2, "memory"),
        banking(3, "sqlite"), tpcc(2, "memory"), epidemic(1),
        banking(4, "memory"), tpcc(3, "sqlite"), banking(5, "sqlite"),
    ]


def _fleet_statements(tenant: Tenant, count: int, seed: int) -> List[str]:
    generator = tenant.generator()
    if tenant.kind != "epidemic":
        return [q.sql for q in generator.queries(count, seed=seed)]
    # The paper's dynamic scenario: W1 → W2 → W3, cycling, so these
    # tenants keep changing indexes after the cold start.
    sql: List[str] = []
    phase = 0
    while len(sql) < count:
        method = (generator.phase_w1, generator.phase_w2, generator.phase_w3)[
            phase % 3
        ]
        sql.extend(q.sql for q in method(1500, seed=seed + phase))
        phase += 1
    return sql[:count]


def _banking_fleet(seed: int, scale: float) -> Plan:
    tenants = _fleet_tenants()
    batch = 100
    every = tenants[0].spec.round_every
    # Which tenant each batch belongs to is part of the workload; the
    # seed draws the statements in it.
    picks = random.Random(STRUCTURE).choices(
        range(len(tenants)),
        weights=_zipf_weights(len(tenants), 1.0),
        k=int(3000 * scale),
    )
    pools = [
        iter(_fleet_statements(
            tenant, every + picks.count(i) * batch, seed * 100 + i
        ))
        for i, tenant in enumerate(tenants)
    ]

    def take(i: int, count: int) -> Batch:
        return (
            tenants[i].spec.tenant_id,
            [next(pools[i]) for _ in range(count)],
        )

    # Warm-up is every tenant's cold start: exactly one round each,
    # which on the banking tenants drops the redundant manual indexes.
    warmup = [
        take(i, batch)
        for _ in range(every // batch)
        for i in range(len(tenants))
    ]
    return Plan(
        "banking_fleet", seed, tenants, warmup,
        [take(i, batch) for i in picks],
    )


# ---------------------------------------------------------------------------
# tpcds_budgeted
# ---------------------------------------------------------------------------


_CHANNELS = ("store_sales", "catalog_sales", "web_sales")


def _tpcds_budgeted(seed: int, scale: float) -> Plan:
    every = 150
    tenant = Tenant(
        _spec("tpcds", round_every=every, storage_budget=3_000_000,
              mcts_iterations=20),
        "tpcds",
        {"scale": 1},
    )
    generator = tenant.generator()
    structure = random.Random(STRUCTURE)
    rng = random.Random(seed * 7919 + 3)
    # One phase per round, and the reporting focus rotates between the
    # three sales channels: the indexes that served the last round do
    # not serve this one, and the budget does not hold them all, so
    # every round has additions and removals to weigh.
    phases = max(int(120 * scale), 8)
    sql: List[str] = []
    for phase in range(phases):
        channel = _CHANNELS[phase % len(_CHANNELS)]
        shapes = [
            q.sql for q in generator.queries(0, seed=seed * 1000 + phase)
            if channel in q.sql
        ]
        weights = [structure.random() + 0.2 for _ in shapes]
        sql.extend(rng.choices(shapes, weights=weights, k=every))
    warm = len(_CHANNELS) * every
    return Plan(
        "tpcds_budgeted",
        seed,
        [tenant],
        _batches("tpcds", sql[:warm], 15),
        _batches("tpcds", sql[warm:], 15),
    )


_BUILDERS = {
    "tpcc_steady": _tpcc_steady,
    "adhoc_churn": _adhoc_churn,
    "banking_fleet": _banking_fleet,
    "tpcds_budgeted": _tpcds_budgeted,
}
NAMES = tuple(_BUILDERS)


def build_plan(name: str, seed: int, scale: float = 1.0) -> Plan:
    """The plan for one workload; ``scale`` < 1 is the smoke size."""
    return _BUILDERS[name](seed, scale)
