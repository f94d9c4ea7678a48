"""Fixture pairs for every lint rule: each seeded violation is caught,
and the corrected twin passes clean."""

import textwrap

from repro.analysis import analyze_snippet


def _violations(source, virtual_path, rule):
    source = textwrap.dedent(source)
    return [
        v
        for v in analyze_snippet(source, virtual_path)
        if v.rule == rule
    ]


# ---------------------------------------------------------------------------
# determinism: unseeded-random
# ---------------------------------------------------------------------------


def test_unseeded_random_bad():
    bad = """
    import random

    def pick(items):
        return random.choice(items)
    """
    found = _violations(bad, "src/repro/core/pick.py", "unseeded-random")
    assert len(found) == 1
    assert "random.choice()" in found[0].message


def test_unseeded_random_good_seeded_instance():
    good = """
    import random

    def pick(items, seed):
        rng = random.Random(seed)
        return rng.choice(items)
    """
    assert not _violations(
        good, "src/repro/core/pick.py", "unseeded-random"
    )


def test_unseeded_numpy_default_rng():
    bad = """
    import numpy as np

    def draw():
        return np.random.default_rng().random()
    """
    good = """
    import numpy as np

    def draw(seed):
        return np.random.default_rng(seed).random()
    """
    assert _violations(bad, "src/repro/core/d.py", "unseeded-random")
    assert not _violations(good, "src/repro/core/d.py", "unseeded-random")


def test_unseeded_random_direct_import():
    bad = """
    from random import shuffle

    def mix(items):
        shuffle(items)
        return items
    """
    found = _violations(bad, "src/repro/engine/mix.py", "unseeded-random")
    assert len(found) == 1


# ---------------------------------------------------------------------------
# determinism: wall-clock
# ---------------------------------------------------------------------------

_CLOCK_SRC = """
import time

def now():
    return time.perf_counter()
"""


def test_wall_clock_flagged_in_core():
    found = _violations(_CLOCK_SRC, "src/repro/core/clock.py", "wall-clock")
    assert len(found) == 1
    assert "Stopwatch" in found[0].message


def test_wall_clock_allowed_in_bench_and_metrics():
    assert not _violations(
        _CLOCK_SRC, "src/repro/bench/clock.py", "wall-clock"
    )
    assert not _violations(
        _CLOCK_SRC, "src/repro/engine/metrics.py", "wall-clock"
    )


# ---------------------------------------------------------------------------
# determinism: unordered-iteration
# ---------------------------------------------------------------------------


def test_unordered_iteration_bad():
    bad = """
    def order(items):
        seen = set(items)
        out = []
        for item in seen:
            out.append(item)
        return out
    """
    found = _violations(
        bad, "src/repro/core/order.py", "unordered-iteration"
    )
    assert len(found) == 1
    assert "PYTHONHASHSEED" in found[0].message


def test_unordered_iteration_good_sorted():
    good = """
    def order(items):
        seen = set(items)
        out = []
        for item in sorted(seen):
            out.append(item)
        return out
    """
    assert not _violations(
        good, "src/repro/core/order.py", "unordered-iteration"
    )


def test_unordered_iteration_outside_core_engine_ignored():
    bad = """
    def order(items):
        seen = set(items)
        return [item for item in seen]
    """
    assert not _violations(
        bad, "src/repro/workloads/order.py", "unordered-iteration"
    )


def test_order_free_reductions_pass():
    good = """
    def summarize(items):
        seen = set(items)
        return len(seen), sorted(seen), min(seen)
    """
    assert not _violations(
        good, "src/repro/engine/s.py", "unordered-iteration"
    )


# ---------------------------------------------------------------------------
# cache-key
# ---------------------------------------------------------------------------


def test_cache_key_missing_parameter():
    bad = """
    class Estimator:
        def __init__(self):
            self._cache = {}

        def cost(self, table, width):
            key = (table,)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
            value = width * 2.0
            self._cache[key] = value
            return value
    """
    found = _violations(bad, "src/repro/core/est.py", "cache-key")
    assert len(found) == 1
    assert "width" in found[0].message


def test_cache_key_complete_passes():
    good = """
    class Estimator:
        def __init__(self):
            self._cache = {}

        def cost(self, table, width):
            key = (table, width)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
            value = width * 2.0
            self._cache[key] = value
            return value
    """
    assert not _violations(good, "src/repro/core/est.py", "cache-key")


def test_cache_key_mutable_attr_not_in_key():
    bad = """
    class Model:
        def __init__(self):
            self._memo = {}
            self._bias = 0.0

        def set_bias(self, bias):
            self._bias = bias

        def predict(self, table, width):
            key = (table, width)
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            value = width * self._bias
            self._memo[key] = value
            return value
    """
    good = bad.replace("key = (table, width)", "key = (table, width, self._bias)")
    found = _violations(bad, "src/repro/core/m.py", "cache-key")
    assert len(found) == 1
    assert "_bias" in found[0].message
    assert not _violations(good, "src/repro/core/m.py", "cache-key")


def test_cache_key_normalizer_version_missing():
    bad = """
    from repro.sql.normalize import normalize_sql

    class Store:
        def __init__(self):
            self._raw_cache = {}

        def lookup(self, sql):
            key = normalize_sql(sql)
            hit = self._raw_cache.get(key)
            if hit is not None:
                return hit
            value = self._parse(sql)
            self._raw_cache[key] = value
            return value
    """
    found = _violations(bad, "src/repro/core/store.py", "cache-key")
    assert len(found) == 1
    assert "NORMALIZER_VERSION" in found[0].message
    assert "normalize_sql" in found[0].message


def test_cache_key_normalizer_version_present():
    good = """
    from repro.sql.normalize import NORMALIZER_VERSION, normalize_sql

    class Store:
        def __init__(self):
            self._raw_cache = {}

        def lookup(self, sql):
            key = (NORMALIZER_VERSION, normalize_sql(sql))
            hit = self._raw_cache.get(key)
            if hit is not None:
                return hit
            value = self._parse(sql)
            self._raw_cache[key] = value
            return value
    """
    assert not _violations(good, "src/repro/core/store.py", "cache-key")


def test_cache_key_raw_key_constructor_passes():
    good = """
    from repro.sql.normalize import raw_key

    class Store:
        def __init__(self):
            self._raw_cache = {}

        def lookup(self, sql):
            key = raw_key(sql)
            hit = self._raw_cache.get(key)
            if hit is not None:
                return hit
            value = self._parse(sql)
            self._raw_cache[key] = value
            return value
    """
    assert not _violations(good, "src/repro/core/store.py", "cache-key")


# ---------------------------------------------------------------------------
# frozen-mutation
# ---------------------------------------------------------------------------


def test_frozen_mutation_cache_hit_write():
    bad = """
    class Planner:
        def plan(self, key):
            plan = self._plan_cache.get(key)
            if plan is None:
                return None
            plan.rows = 10
            return plan
    """
    found = _violations(bad, "src/repro/engine/p.py", "frozen-mutation")
    assert len(found) == 1
    assert "copy" in found[0].message


def test_frozen_mutation_copy_first_passes():
    good = """
    class Planner:
        def plan(self, key):
            plan = self._plan_cache.get(key)
            if plan is None:
                return None
            plan = dict(plan)
            plan["rows"] = 10
            return plan
    """
    assert not _violations(good, "src/repro/engine/p.py", "frozen-mutation")


def test_frozen_mutation_snapshot_mutator_call():
    bad = """
    class Tree:
        def expand(self, node):
            costs = node.costs
            costs.append(1.0)
            return costs
    """
    good = """
    class Tree:
        def expand(self, node):
            costs = list(node.costs)
            costs.append(1.0)
            return costs
    """
    assert _violations(bad, "src/repro/core/t.py", "frozen-mutation")
    assert not _violations(good, "src/repro/core/t.py", "frozen-mutation")


# ---------------------------------------------------------------------------
# layer
# ---------------------------------------------------------------------------


def test_layer_engine_must_not_import_core():
    bad = """
    from repro.core.estimator import CostModel
    """
    found = _violations(bad, "src/repro/engine/uses_core.py", "layer")
    assert len(found) == 1


def test_layer_core_may_import_engine():
    good = """
    from repro.engine.metrics import Stopwatch
    """
    assert not _violations(good, "src/repro/core/uses_engine.py", "layer")


def test_layer_bench_import_ban():
    bad = """
    from repro.bench import harness
    """
    assert _violations(bad, "src/repro/core/uses_bench.py", "layer")
    # __main__ entry points are the sanctioned wiring location.
    assert not _violations(bad, "src/repro/__main__.py", "layer")


def test_layer_core_must_not_import_concrete_database():
    """core reaches the database only through the ports protocol."""
    direct = """
    from repro.engine.database import Database
    """
    via_package = """
    from repro.engine import database
    """
    executor = """
    import repro.engine.executor
    """
    assert _violations(direct, "src/repro/core/x.py", "layer")
    assert _violations(via_package, "src/repro/core/x.py", "layer")
    assert _violations(executor, "src/repro/core/x.py", "layer")
    # Engine value types stay importable from core...
    ok = """
    from repro.engine.index import IndexDef
    from repro.engine.faults import FaultInjector
    """
    assert not _violations(ok, "src/repro/core/x.py", "layer")
    # ...and the adapters themselves may of course import the facade.
    assert not _violations(direct, "src/repro/ports/memory.py", "layer")


def test_layer_ports_placement():
    good = """
    from repro.engine.catalog import Catalog
    from repro.sql import ast
    """
    assert not _violations(good, "src/repro/ports/adapter.py", "layer")
    # ports sits below core: it must not import the tuner...
    bad_up = """
    from repro.core.estimator import BenefitEstimator
    """
    assert _violations(bad_up, "src/repro/ports/adapter.py", "layer")
    # ...and the engine must not know about its adapters.
    bad_down = """
    from repro.ports.backend import TuningBackend
    """
    assert _violations(bad_down, "src/repro/engine/planner2.py", "layer")
