"""Workload generators for the evaluation benchmarks.

Each generator owns a schema, a deterministic data loader, a stream of
concrete SQL statements, and a "Default" index configuration — the
starting point the paper's Default baseline keeps and AutoIndex
incrementally updates.
"""

from repro.workloads.base import Query, WorkloadGenerator
from repro.workloads.epidemic import EpidemicWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpcds import TpcdsWorkload
from repro.workloads.banking import BankingWorkload
from repro.workloads.dynamic import DynamicWorkload, Phase

__all__ = [
    "BankingWorkload",
    "DynamicWorkload",
    "EpidemicWorkload",
    "Phase",
    "Query",
    "TpccWorkload",
    "TpcdsWorkload",
    "WorkloadGenerator",
]
