"""Workload abstractions shared by all generators."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.index import IndexDef
from repro.engine.schema import TableSchema
from repro.ports.backend import TuningBackend


@dataclass(frozen=True)
class Query:
    """One workload statement with a coarse kind tag."""

    sql: str
    kind: str = "read"  # "read" or "write"
    tag: Optional[str] = None  # e.g. a TPC-DS query id for per-query plots

    @property
    def is_write(self) -> bool:
        return self.kind == "write"


class WorkloadGenerator(abc.ABC):
    """A benchmark scenario: schema + data + query stream + defaults."""

    name: str = "workload"

    @abc.abstractmethod
    def schemas(self) -> List[TableSchema]:
        """Table definitions for this scenario."""

    @abc.abstractmethod
    def load(self, db: TuningBackend) -> None:
        """Populate the tables with deterministic data."""

    @abc.abstractmethod
    def queries(self, count: int, seed: int = 0) -> List[Query]:
        """Generate ``count`` concrete statements."""

    def default_indexes(self) -> List[IndexDef]:
        """Extra indexes the Default baseline starts with (besides PKs)."""
        return []

    def build(self, db: TuningBackend, with_defaults: bool = True) -> None:
        """Create tables, load data, add default indexes, and ANALYZE."""
        for schema in self.schemas():
            db.create_table(schema)
        self.load(db)
        if with_defaults:
            for index_def in self.default_indexes():
                if not db.has_index(index_def):
                    db.create_index(index_def)
        db.analyze()


def weighted_choice(rng: random.Random, weights: Sequence[float]) -> int:
    """Pick an index according to ``weights`` (need not sum to 1)."""
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if point <= acc:
            return i
    return len(weights) - 1
