"""Exact search golden: what MCTS finds, pinned bit for bit.

Each case runs two rounds on one selector, so the second round
re-roots the persistent policy tree and bumps its epoch. Round two
sees a shifted workload (the top half of the templates), which makes
every cached node benefit stale. The values are an exact oracle: any
change to the rng draw order, the bookkeeping order or the cost
arithmetic moves at least one of them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.estimator import BenefitEstimator
from repro.core.mcts import MctsIndexSelector

_BANKING_FULL = [
    ("card", ("acct_id", "card_status")),
    ("sum_fact_10", ("branch_id", "day")),
    ("sum_fact_11", ("branch_id", "day")),
    ("sum_fact_18", ("day",)),
    ("sum_fact_7", ("day",)),
    ("sum_fact_9", ("branch_id", "day")),
    ("txn_log", ("acct_id", "day")),
    ("txn_log", ("branch_id", "txn_type", "day")),
]
_BANKING_SHIFTED = [
    ("card", ("acct_id", "card_status")),
    ("sum_fact_9", ("branch_id", "day")),
    ("txn_log", ("acct_id", "day")),
    ("txn_log", ("branch_id", "txn_type", "day")),
]
_TPCC_FULL = [("customer", ("c_last", "c_d_id", "c_w_id"))]

# (workload, seed) -> per round: (non-protected best_config keys,
# len(best_config), best_benefit.hex(), evaluations, iterations,
# estimator.plans_computed, policy-tree node count)
GOLDEN = {
    ("banking", 17): [
        (_BANKING_FULL, 152, "0x1.e16d4f1d6ce56p+8", 72, 24, 105, 25),
        (_BANKING_SHIFTED, 148, "0x1.cd490a58ad95ap+8", 72, 24, 107, 283),
    ],
    ("banking", 29): [
        (_BANKING_FULL, 152, "0x1.e16d4f1d6ce56p+8", 72, 24, 107, 25),
        (_BANKING_SHIFTED, 148, "0x1.cd490a58ad95ap+8", 72, 24, 107, 289),
    ],
    ("tpcc", 17): [
        (_TPCC_FULL, 10, "0x1.a6aaa99316100p+3", 72, 24, 88, 53),
        ([], 9, "0x0.0p+0", 72, 24, 88, 91),
    ],
    ("tpcc", 29): [
        (_TPCC_FULL, 10, "0x1.a6aaa99316100p+3", 72, 24, 88, 53),
        ([], 9, "0x0.0p+0", 71, 24, 88, 91),
    ],
}


@pytest.mark.parametrize("workload", ["banking", "tpcc"])
@pytest.mark.parametrize("seed", [17, 29])
def test_two_round_search_matches_golden(
    workload, seed, banking_setup, tpcc_setup
):
    db, templates, candidates = (
        banking_setup if workload == "banking" else tpcc_setup
    )
    estimator = BenefitEstimator(db)
    selector = MctsIndexSelector(
        estimator,
        iterations=24,
        rollouts=2,
        patience=10**9,
        rng=random.Random(seed),
    )
    existing = db.index_defs()
    protected = [d for d in existing if d.unique]
    protected_keys = {d.key for d in protected}
    observed = []
    for window in (templates, templates[: len(templates) // 2]):
        result = selector.search(
            existing=existing,
            candidates=candidates,
            templates=window,
            protected=protected,
        )
        keys = sorted(d.key for d in result.best_config)
        observed.append(
            (
                [k for k in keys if k not in protected_keys],
                len(keys),
                result.best_benefit.hex(),
                result.evaluations,
                result.iterations,
                estimator.plans_computed,
                selector.tree.node_count(),
            )
        )
    assert observed == GOLDEN[(workload, seed)]
