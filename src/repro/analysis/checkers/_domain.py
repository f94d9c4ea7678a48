"""Domain policy shared by the interprocedural checkers.

The graph/effects layers are mechanism; this module is policy: which
protocol is the backend boundary, how its methods classify into
effect kinds, and which class is the template store.  Checkers match
classes by *name* (the suffix after ``:``) so test fixtures can
define their own ``TuningBackend`` protocol or ``TemplateStore``
class in a throwaway package and exercise the same rules.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Class name of the backend protocol (the analysis boundary).
BACKEND_PROTOCOL_NAME = "TuningBackend"

#: Class name of the template store (store-write effect receiver).
STORE_CLASS_NAME = "TemplateStore"

#: Backend protocol methods by effect kind.  Anything not listed is
#: read-only (what-if costing, plans, stats, catalog probes).
DDL_CREATE_METHODS = frozenset({"create_index", "create_table"})
DDL_DROP_METHODS = frozenset({"drop_index", "drop_table"})
BACKEND_EXEC_METHODS = frozenset({"execute", "load_rows", "analyze"})
USAGE_RESET_METHODS = frozenset({"reset_index_usage"})

BACKEND_MUTATING_METHODS = frozenset(
    DDL_CREATE_METHODS
    | DDL_DROP_METHODS
    | BACKEND_EXEC_METHODS
    | USAGE_RESET_METHODS
)

#: The stage-effect contract vocabulary (``# effect: allows[...]``).
EFFECT_VOCABULARY = (
    "ddl-create",
    "ddl-drop",
    "backend-exec",
    "usage-reset",
    "cache-invalidate",
    "store-write",
    "rng",
)


def class_name_of(ref: str) -> str:
    """``"repro.core.templates:TemplateStore"`` → ``"TemplateStore"``."""
    return ref.rsplit(":", 1)[-1]


def is_backend_protocol(ref: str) -> bool:
    return class_name_of(ref) == BACKEND_PROTOCOL_NAME


def is_store_class(ref: str) -> bool:
    return class_name_of(ref) == STORE_CLASS_NAME


def backend_effect_of(method: str) -> Optional[str]:
    """Effect-vocabulary kind of a backend protocol call, if mutating."""
    if method in DDL_CREATE_METHODS:
        return "ddl-create"
    if method in DDL_DROP_METHODS:
        return "ddl-drop"
    if method in BACKEND_EXEC_METHODS:
        return "backend-exec"
    if method in USAGE_RESET_METHODS:
        return "usage-reset"
    return None


def render_chain(chain: Tuple[str, ...], limit: int = 4) -> str:
    """Human-readable call chain, elided in the middle when long."""
    names = [q.rsplit(":", 1)[-1] for q in chain]
    if len(names) > limit:
        names = names[:2] + ["..."] + names[-1:]
    return " -> ".join(names)
