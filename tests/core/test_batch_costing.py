"""Vectorized batch costing must equal per-template scalar costing.

The batch path prices a whole workload with one overlay window and one
``model.predict`` call; the scalar path prices template by template.
These tests pin exact float equality between the two on real
workloads, for full costing, delta costing and a whole MCTS search.
"""

from __future__ import annotations

import random

import pytest

from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector


def _search(db, templates, candidates, seed, vectorized=True):
    estimator = BenefitEstimator(db, vectorized=vectorized)
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
    """Vectorized batch costing == per-template scalar costing, exactly."""

    @pytest.mark.parametrize("workload", ["banking", "tpcc"])
    def test_workload_costs_exact(
        self, workload, banking_setup, tpcc_setup
    ):
        db, templates, candidates = (
            banking_setup if workload == "banking" else tpcc_setup
        )
        batched = BenefitEstimator(db)
        scalar = BenefitEstimator(db, vectorized=False)
        rng = random.Random(5)
        for _ in range(12):
            config = rng.sample(
                candidates, k=rng.randrange(0, min(len(candidates), 8))
            )
            got = batched.workload_costs(templates, config)
            want = scalar.workload_costs(templates, config)
            assert got.tolist() == want.tolist()

    def test_delta_matches_scalar_recompute(self, tpcc_setup):
        db, templates, candidates = tpcc_setup
        batched = BenefitEstimator(db)
        scalar = BenefitEstimator(db, vectorized=False)
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
            want = scalar.workload_costs(templates, child)
            assert costs.tolist() == want.tolist()
            assert total == float(want.sum())

    def test_search_identical_across_estimator_modes(self, tpcc_setup):
        db, templates, candidates = tpcc_setup
        batched = _search(
            db, templates, candidates, seed=17, vectorized=True
        )
        scalar = _search(
            db, templates, candidates, seed=17, vectorized=False
        )
        assert batched.best_benefit == scalar.best_benefit
        assert frozenset(batched.best_config) == frozenset(
            scalar.best_config
        )
        assert batched.evaluations == scalar.evaluations
