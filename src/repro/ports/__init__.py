"""Ports & adapters: the backend-agnostic tuner ⇄ DBMS boundary.

``repro.core`` speaks only :class:`TuningBackend`; concrete engines
plug in behind it (:class:`MemoryBackend`, :class:`SqliteBackend`) via
:func:`create_backend`. See ARCHITECTURE.md §8.
"""

from repro.ports.backend import (
    ExecutionOutcome,
    TuningBackend,
    WhatIfCost,
)
from repro.ports.factory import (
    BackendSpec,
    DEFAULT_BACKEND,
    available_backends,
    create_backend,
)
from repro.ports.memory import MemoryBackend
from repro.ports.sqlite import SqliteBackend
from repro.ports.whatif import (
    overlay_split,
    planned_whatif,
    strip_placeholders,
    whatif_overlay,
)

__all__ = [
    "BackendSpec",
    "DEFAULT_BACKEND",
    "ExecutionOutcome",
    "MemoryBackend",
    "SqliteBackend",
    "TuningBackend",
    "WhatIfCost",
    "available_backends",
    "create_backend",
    "overlay_split",
    "planned_whatif",
    "strip_placeholders",
    "whatif_overlay",
]
