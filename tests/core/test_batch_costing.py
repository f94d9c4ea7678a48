"""Batch costing must equal per-template scalar costing.

The batch path prices a whole workload with one overlay window and one
``model.predict`` call; :meth:`BenefitEstimator.query_cost` prices one
template through its own overlay. These tests pin exact float equality
between the two on real workloads, for full costing, delta costing and
a whole MCTS search. The reference is always a second estimator, so
the two sides share no cache tier.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector


def _scalar_costs(estimator, templates, config):
    """``weight × query_cost`` per template: the scalar reference."""
    return np.array(
        [max(t.weight, 0.1) * estimator.query_cost(t, config)
         for t in templates],
        dtype=float,
    )


def _search(estimator, templates, candidates, seed):
    db = estimator.backend
    selector = MctsIndexSelector(
        estimator,
        iterations=24,
        rollouts=2,
        patience=10**9,
        rng=random.Random(seed),
    )
    existing = db.index_defs()
    return selector.search(
        existing=existing,
        candidates=candidates,
        templates=templates,
        protected=[d for d in existing if d.unique],
    )


class TestBatchScalarParity:
    """Batch costing == per-template ``query_cost``, exactly."""

    @pytest.mark.parametrize("workload", ["banking", "tpcc"])
    def test_workload_costs_exact(
        self, workload, banking_setup, tpcc_setup
    ):
        db, templates, candidates = (
            banking_setup if workload == "banking" else tpcc_setup
        )
        batched = BenefitEstimator(db)
        scalar = BenefitEstimator(db)
        rng = random.Random(5)
        for _ in range(12):
            config = rng.sample(
                candidates, k=rng.randrange(0, min(len(candidates), 8))
            )
            got = batched.workload_costs(templates, config)
            want = _scalar_costs(scalar, templates, config)
            assert got.tolist() == want.tolist()

    def test_delta_matches_scalar_recompute(self, tpcc_setup):
        db, templates, candidates = tpcc_setup
        batched = BenefitEstimator(db)
        scalar = BenefitEstimator(db)
        rng = random.Random(9)
        parent = rng.sample(candidates, k=min(len(candidates), 5))
        parent_costs = batched.workload_costs(templates, parent)
        for _ in range(6):
            child = list(parent)
            child.remove(rng.choice(child))
            child.append(
                rng.choice([c for c in candidates if c not in child])
            )
            total, costs = batched.workload_cost_delta(
                parent_costs, templates, parent, child
            )
            want = _scalar_costs(scalar, templates, child)
            assert costs.tolist() == want.tolist()
            assert total == float(want.sum())

    def test_search_identical_across_estimator_modes(
        self, tpcc_setup, monkeypatch
    ):
        db, templates, candidates = tpcc_setup
        batched = _search(
            BenefitEstimator(db), templates, candidates, seed=17
        )
        # The reference search prices every evaluation, full or
        # delta, template by template through query_cost.
        scalar = BenefitEstimator(db)

        def full_costs(templates, config):
            return _scalar_costs(scalar, templates, config)

        def delta_costs(parent_costs, templates, parent_config,
                        child_config, changed_tables=None):
            costs = full_costs(templates, child_config)
            return float(costs.sum()), costs

        monkeypatch.setattr(scalar, "workload_costs", full_costs)
        monkeypatch.setattr(scalar, "workload_cost_delta", delta_costs)
        reference = _search(scalar, templates, candidates, seed=17)
        assert batched.best_benefit == reference.best_benefit
        assert frozenset(batched.best_config) == frozenset(
            reference.best_config
        )
        assert batched.evaluations == reference.evaluations
