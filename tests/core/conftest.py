"""Observed banking and TPC-C workloads shared by the search tests."""

from __future__ import annotations

import pytest

from repro.bench.harness import prepare_database
from repro.core.candidates import CandidateGenerator
from repro.core.templates import TemplateStore
from repro.workloads.banking import BankingWorkload
from repro.workloads.tpcc import TpccWorkload


def _observed(generator, observe: int, top: int):
    db = prepare_database(generator)
    store = TemplateStore()
    for query in generator.queries(observe, seed=3):
        store.observe(query.sql, db.parse_statement(query.sql))
    templates = store.templates(top=top)
    candidates = [
        c.definition for c in CandidateGenerator(db).generate(templates)
    ]
    return db, templates, candidates


@pytest.fixture(scope="module")
def banking_setup():
    return _observed(
        BankingWorkload(accounts=800, txn_rows=2000, product_rows=100),
        observe=120,
        top=60,
    )


@pytest.fixture(scope="module")
def tpcc_setup():
    return _observed(TpccWorkload(scale=1, seed=11), observe=200, top=80)
