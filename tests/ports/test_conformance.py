"""Backend-conformance suite: the TuningBackend contract.

Each test runs against every registered adapter (see conftest), so
the in-memory engine and the SQLite adapter must agree on the
observable semantics the tuner depends on: hypothetical what-if
costing (add and mask), transactional DDL, usage accounting, and the
statement surface.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.faults import FaultError, FaultPlan, PERMANENT
from repro.engine.index import IndexDef
from repro.ports import create_backend
from repro.ports.backend import TuningBackend

from tests.ports.conftest import load_people

COMMUNITY_SQL = (
    "SELECT id FROM people WHERE community = 3 AND status = 'suspect'"
)
COMMUNITY_IX = IndexDef("people", ("community", "status"))


class TestProtocolSurface:
    def test_is_runtime_instance(self, backend):
        assert isinstance(backend, TuningBackend)

    def test_parse_and_fingerprint(self, people_backend):
        statement = people_backend.parse_statement(COMMUNITY_SQL)
        fp_direct = people_backend.fingerprint(statement)
        other = people_backend.parse_statement(
            "SELECT id FROM people WHERE community = 9 AND status = 'x'"
        )
        assert fp_direct == people_backend.fingerprint(other)

    def test_execute_outcome(self, people_backend):
        outcome = people_backend.execute(
            "SELECT COUNT(*) FROM people WHERE community = 3"
        )
        assert outcome.scalar >= 1
        assert outcome.cost > 0.0
        assert outcome.plan is not None

    def test_schema_and_stats(self, people_backend):
        assert people_backend.has_table("people")
        assert not people_backend.has_table("nope")
        assert people_backend.table_row_count("people") == 2000
        schema = people_backend.schema("people")
        assert schema.has_column("community")
        stats = people_backend.table_stats("people")
        assert stats.row_count == 2000
        assert stats.column("community").n_distinct == 20


class TestWhatIf:
    def test_hypothetical_add_lowers_cost(self, people_backend):
        statement = people_backend.parse_statement(COMMUNITY_SQL)
        existing = people_backend.index_defs()
        base = people_backend.whatif_cost(statement, existing)
        better = people_backend.whatif_cost(
            statement, existing + [COMMUNITY_IX]
        )
        assert better.total < base.total
        # Purely hypothetical: nothing was materialised.
        assert not people_backend.has_index(COMMUNITY_IX)
        assert people_backend.index_defs() == existing

    def test_mask_restores_unindexed_cost(self, people_backend):
        statement = people_backend.parse_statement(COMMUNITY_SQL)
        bare = people_backend.whatif_cost(statement, [])
        people_backend.create_index(COMMUNITY_IX)
        indexed = people_backend.whatif_cost(
            statement, people_backend.index_defs()
        )
        masked = people_backend.whatif_cost(statement, [])
        assert indexed.total < bare.total
        # Masking every real index re-produces the bare cost even
        # though the index physically exists.
        assert masked.total == pytest.approx(bare.total)

    def test_write_maintenance_components(self, people_backend):
        people_backend.create_index(COMMUNITY_IX)
        statement = people_backend.parse_statement(
            "UPDATE people SET community = 5 WHERE id = 10"
        )
        cost = people_backend.whatif_cost(
            statement, people_backend.index_defs()
        )
        assert cost.is_write
        assert cost.num_affected_indexes >= 1
        assert cost.maintenance_io > 0.0
        assert cost.total >= cost.data_cost

    def test_estimate_cost_matches_whatif_total(self, people_backend):
        statement = people_backend.parse_statement(COMMUNITY_SQL)
        total, plan = people_backend.estimate_cost(statement, [COMMUNITY_IX])
        assert total == pytest.approx(
            people_backend.whatif_cost(statement, [COMMUNITY_IX]).total
        )
        assert plan is not None


class TestDdl:
    def test_create_drop_roundtrip(self, people_backend):
        version = people_backend.catalog_version()
        people_backend.create_index(COMMUNITY_IX)
        assert people_backend.has_index(COMMUNITY_IX)
        assert people_backend.catalog_version() != version
        assert people_backend.index_size_bytes(COMMUNITY_IX) > 0
        assert people_backend.total_index_bytes() >= (
            people_backend.index_size_bytes(COMMUNITY_IX)
        )
        people_backend.drop_index(COMMUNITY_IX)
        assert not people_backend.has_index(COMMUNITY_IX)

    def test_duplicate_create_rejected(self, people_backend):
        people_backend.create_index(COMMUNITY_IX)
        with pytest.raises(ValueError):
            people_backend.create_index(COMMUNITY_IX)

    def test_drop_missing_raises(self, people_backend):
        with pytest.raises(KeyError):
            people_backend.drop_index(COMMUNITY_IX)

    def test_build_fault_is_atomic(self, backend_name):
        """An injected index.build fault must leave no trace."""
        db = create_backend(backend_name)
        load_people(db)
        # Attach faults after the build (schema setup is never chaos
        # tested — same convention as the bench harness).
        faults = (
            FaultPlan(seed=3)
            .add("index.build", schedule=[1], kind=PERMANENT)
            .injector()
        )
        db.faults = faults
        before = db.index_defs()
        version = db.catalog_version()
        with pytest.raises(FaultError):
            db.create_index(COMMUNITY_IX)
        assert not db.has_index(COMMUNITY_IX)
        assert db.index_defs() == before
        assert db.catalog_version() == version
        # The schedule only covers the first attempt: the retry lands.
        db.create_index(COMMUNITY_IX)
        assert db.has_index(COMMUNITY_IX)


class TestUsageCounters:
    def usage_of(self, db, definition):
        for usage in db.index_usage():
            if usage.definition.key == definition.key:
                return usage
        raise AssertionError(f"no usage row for {definition}")

    def test_lookup_counting(self, people_backend):
        people_backend.create_index(COMMUNITY_IX)
        people_backend.reset_index_usage()
        for _ in range(3):
            people_backend.execute(COMMUNITY_SQL)
        usage = self.usage_of(people_backend, COMMUNITY_IX)
        assert usage.lookups == 3

    def test_write_maintenance_counting(self, people_backend):
        people_backend.create_index(COMMUNITY_IX)
        people_backend.reset_index_usage()
        people_backend.execute(
            "INSERT INTO people (id, name, community, temperature, "
            "status) VALUES (9001, 'n', 3, 36.6, 'healthy')"
        )
        people_backend.execute(
            "UPDATE people SET community = 7 WHERE id = 9001"
        )
        usage = self.usage_of(people_backend, COMMUNITY_IX)
        # insert: 1 op; keyed update: delete+insert = 2 ops.
        assert usage.maintenance_ops == 3

    def test_reset_zeroes(self, people_backend):
        people_backend.create_index(COMMUNITY_IX)
        people_backend.execute(COMMUNITY_SQL)
        people_backend.reset_index_usage()
        usage = self.usage_of(people_backend, COMMUNITY_IX)
        assert usage.lookups == 0
        assert usage.maintenance_ops == 0

    def test_usage_epoch_bumps_on_reset_only(self, people_backend):
        # Incremental diagnosis keys its classification cache on the
        # usage epoch: a reset must move it, mere reads must not, and
        # catalog_version (which a reset leaves alone) must not be
        # relied on to see resets.
        epoch = people_backend.usage_epoch()
        catalog = people_backend.catalog_version()
        people_backend.execute(COMMUNITY_SQL)
        assert people_backend.usage_epoch() == epoch
        people_backend.reset_index_usage()
        assert people_backend.usage_epoch() > epoch
        assert people_backend.catalog_version() == catalog


class TestCacheKeys:
    """``data_version`` and ``index_identity``: the what-if cache keys."""

    def test_index_ddl_moves_catalog_version_only(self, people_backend):
        catalog, data = (
            people_backend.catalog_version(),
            people_backend.data_version(),
        )
        people_backend.create_index(COMMUNITY_IX)
        assert people_backend.catalog_version() > catalog
        assert people_backend.data_version() == data
        catalog = people_backend.catalog_version()
        people_backend.drop_index(COMMUNITY_IX)
        assert people_backend.catalog_version() > catalog
        assert people_backend.data_version() == data

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.load_rows(
                "people", [(90000, "p", 1, 37.0, "healthy")]
            ),
            lambda db: db.analyze(),
            lambda db: db.execute(
                "INSERT INTO people (id, name, community, temperature, "
                "status) VALUES (90001, 'q', 2, 36.6, 'suspect')"
            ),
            lambda db: db.execute(
                "UPDATE people SET status = 'healthy' WHERE id = 10"
            ),
            lambda db: db.execute("DELETE FROM people WHERE id = 11"),
        ],
        ids=["load_rows", "analyze", "insert", "update", "delete"],
    )
    def test_data_changes_move_both_versions(self, people_backend, change):
        catalog, data = (
            people_backend.catalog_version(),
            people_backend.data_version(),
        )
        change(people_backend)
        assert people_backend.catalog_version() > catalog
        assert people_backend.data_version() > data

    def test_identity_lists_built_then_unbuilt_keys(self, people_backend):
        # Nothing diverges right after ANALYZE: names are bare keys,
        # the built primary key first, the rest in key order.
        pk = IndexDef("people", ("id",))
        temperature = IndexDef("people", ("temperature",))
        defs = [temperature, COMMUNITY_IX, pk]
        assert people_backend.index_identity(defs) == (
            pk.key,
            COMMUNITY_IX.key,
            temperature.key,
        )


_PEOPLE_INDEXES = [
    IndexDef("people", ("community",)),
    IndexDef("people", ("community", "status")),
    IndexDef("people", ("status", "temperature")),
    IndexDef("people", ("temperature",)),
    IndexDef("people", ("name",)),
]
_PEOPLE_STATEMENTS = [
    COMMUNITY_SQL,
    "SELECT name FROM people WHERE temperature > 39.5",
    "SELECT COUNT(*) FROM people WHERE status = 'confirmed' "
    "AND temperature BETWEEN 37.0 AND 38.0",
    "SELECT id, status FROM people WHERE community = 4 ORDER BY id",
    "SELECT name FROM people WHERE name = 'person_77'",
    "UPDATE people SET community = 5, status = 'x' WHERE id = 10",
    "UPDATE people SET temperature = 38.0 WHERE community = 2",
    "INSERT INTO people (id, name, community, temperature, status) "
    "VALUES (99999, 'z', 3, 37.2, 'suspect')",
]


def _feature_bits(backend, config):
    from repro.core.features import compute_features

    out = []
    for sql in _PEOPLE_STATEMENTS:
        f = compute_features(backend, backend.parse_statement(sql), config)
        out.append(
            (
                f.data_cost.hex(),
                f.io_cost.hex(),
                f.cpu_cost.hex(),
                f.is_write,
                f.num_affected_indexes,
            )
        )
    return out


def _shapes(backend, definition):
    from repro.engine.index import hypothetical_shape, shape_of_index

    catalog = backend.catalog
    entry = catalog.table(definition.table)
    return (
        shape_of_index(catalog.get_index(definition)),
        hypothetical_shape(definition, entry.schema, entry.stats),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(
        st.sampled_from(range(len(_PEOPLE_INDEXES))),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    choose=st.integers(min_value=0, max_value=3),
    writes=st.sampled_from([0, 1, 40, 300]),
)
# Building ("temperature",) moves it ahead of the two unbuilt indexes
# in the planner's maintenance sum, which changes the INSERT's io_cost
# in the last bit: the identity must not stay equal. Building
# ("community",), the first unbuilt key, keeps the order and the
# identity, so the features must match bit for bit.
@example(picks=[0, 1, 3], choose=2, writes=0)
@example(picks=[0, 1, 3], choose=0, writes=0)
def test_identity_decides_hypothetical_vs_built_features(
    backend_name, picks, choose, writes
):
    """Equal identity: bit-identical features. Unequal shapes: unequal identity.

    One index of a random configuration is planned hypothetical, then
    built. Executed inserts first make the stats stale, so the built
    tree can differ from the estimate.
    """
    db = create_backend(backend_name)
    load_people(db, rows=600)
    for i in range(writes):
        db.execute(
            "INSERT INTO people (id, name, community, temperature, "
            f"status) VALUES ({10000 + i}, 'w{i}', {i % 7}, 37.5, 'healthy')"
        )
    config = [_PEOPLE_INDEXES[i] for i in picks]
    built = config[choose % len(config)]
    hypothetical_identity = db.index_identity(config)
    hypothetical_features = _feature_bits(db, config)
    db.create_index(built)
    built_identity = db.index_identity(config)
    built_features = _feature_bits(db, config)
    real, estimate = _shapes(db, built)
    if real != estimate:
        assert hypothetical_identity != built_identity
    if hypothetical_identity == built_identity:
        assert built_features == hypothetical_features
