"""Red test: the estimator pins a template's first parsed sample.

``QueryTemplate.sample_sql`` holds the most recent concrete instance,
but ``BenefitEstimator._sample_cache`` is keyed by fingerprint and
keeps the first statement it parsed, even across
``clear_cache(include_features=True)``. A fresh estimator — what a
restored tenant builds — parses the current sample instead, so the
same template under the same configuration is priced differently
before and after a restart. The fix changes decisions, so it is not
made here.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import BenefitEstimator
from repro.core.templates import TemplateStore
from repro.engine.index import IndexDef
from repro.ports import create_backend
from repro.workloads.banking import BankingWorkload


@pytest.mark.xfail(
    strict=True,
    reason="BenefitEstimator._sample_cache pins the first sample_sql "
    "per fingerprint; a restarted estimator prices the latest one",
)
def test_long_lived_estimator_prices_like_a_fresh_one():
    db = create_backend("memory")
    BankingWorkload(accounts=300, txn_rows=900, product_rows=40).build(db)
    store = TemplateStore(parse_fn=db.parse_statement)
    config = [IndexDef("txn_log", ("amount",))]
    template = store.observe("SELECT txn_id FROM txn_log WHERE amount < 1")
    long_lived = BenefitEstimator(db)
    long_lived.query_cost(template, config)
    store.observe("SELECT txn_id FROM txn_log WHERE amount < 100000000")
    long_lived.clear_cache(include_features=True)
    assert long_lived.query_cost(template, config) == (
        BenefitEstimator(db).query_cost(template, config)
    )
