"""Backend factory: construct a :class:`TuningBackend` by name.

The factory serves two callers that must share one code path:

* the single-database CLIs (``python -m repro.bench --backend sqlite``)
  that pick one adapter for the whole process, and
* the serving daemon, where every tenant pins its own backend kind —
  many adapters of different kinds live side by side in one process.

Both go through :func:`create_backend`.  A tenant's backend record,
:class:`BackendSpec`, lives in its
:class:`~repro.serve.config.TenantSpec`, whose ``build()`` is the one
place a tenant's backend and advisor are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.engine.cost import CostParams, DEFAULT_PARAMS
from repro.engine.faults import FaultInjector
from repro.ports.backend import TuningBackend
from repro.ports.memory import MemoryBackend
from repro.ports.sqlite import SqliteBackend

_REGISTRY: Dict[str, Callable[..., TuningBackend]] = {
    "memory": MemoryBackend,
    "sqlite": SqliteBackend,
}

DEFAULT_BACKEND = "memory"

#: Default advisor seed mirrored from :class:`AutoIndexAdvisor`; kept
#: here so a backend spec is complete without importing core.
DEFAULT_SEED = 17


@dataclass(frozen=True)
class BackendSpec:
    """A tenant's backend record inside its ``TenantSpec``.

    ``kind`` names the adapter :func:`create_backend` builds;
    ``seed`` seeds the advisor built on top of it; ``shard_budget``
    caps that advisor's template store (the per-tenant memory bound —
    ``None`` keeps the library default capacity).
    """

    kind: str = DEFAULT_BACKEND
    seed: int = DEFAULT_SEED
    shard_budget: Optional[int] = None


def available_backends() -> tuple:
    """Backend names accepted by :func:`create_backend`, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(
    name: str = DEFAULT_BACKEND,
    params: CostParams = DEFAULT_PARAMS,
    faults: Optional[FaultInjector] = None,
) -> TuningBackend:
    """Construct the named backend adapter.

    Every adapter takes the same (cost-model params, fault injector)
    pair, so callers — the bench harness, workload preparation, the
    tenant registry, tests — stay backend-agnostic.
    """
    try:
        ctor = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown backend {name!r} (known: {known})"
        ) from None
    return ctor(params=params, faults=faults)
