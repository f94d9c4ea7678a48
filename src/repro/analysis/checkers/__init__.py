"""Built-in checkers.

Importing this package registers every shipped checker with the
framework registry.  Third-party checkers can call
:func:`repro.analysis.register` themselves.

Per-file checkers run in the per-file pass; the interprocedural
checkers (stage-effects, cache-invalidation) run in the
project pass over the linked symbol/effect graph.
"""

from repro.analysis.checkers.cacheinvalidation import (
    CacheInvalidationChecker,
)
from repro.analysis.checkers.cachekeys import CacheKeyChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exhaustiveness import ExhaustivenessChecker
from repro.analysis.checkers.layers import LayerChecker
from repro.analysis.checkers.mutation import FrozenMutationChecker
from repro.analysis.checkers.stageeffects import StageEffectsChecker

__all__ = [
    "CacheInvalidationChecker",
    "CacheKeyChecker",
    "DeterminismChecker",
    "ExhaustivenessChecker",
    "FrozenMutationChecker",
    "LayerChecker",
    "StageEffectsChecker",
]
