"""Catalog and what-if overlay tests."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.index import Index, IndexDef
from repro.engine.schema import ColumnType as T
from repro.engine.schema import table
from repro.engine.stats import analyze_table


def fresh_catalog():
    catalog = Catalog()
    schema = table(
        "t", [("a", T.INT), ("b", T.INT), ("c", T.TEXT)], primary_key=["a"]
    )
    entry = catalog.add_table(schema)
    rows = [(i, i % 10, f"v{i}") for i in range(1000)]
    for row in rows:
        entry.heap.insert(row)
    entry.stats = analyze_table(rows, schema.column_names)
    return catalog, schema


class TestTables:
    def test_add_and_get(self):
        catalog, schema = fresh_catalog()
        assert catalog.table("t").schema is schema
        assert catalog.has_table("t")
        assert catalog.table_names() == ["t"]

    def test_duplicate_table_rejected(self):
        catalog, schema = fresh_catalog()
        with pytest.raises(ValueError):
            catalog.add_table(schema)

    def test_missing_table_raises(self):
        catalog, _ = fresh_catalog()
        with pytest.raises(KeyError):
            catalog.table("missing")

    def test_drop_table(self):
        catalog, _ = fresh_catalog()
        catalog.drop_table("t")
        assert not catalog.has_table("t")


class TestIndexes:
    def make_index(self, catalog, columns=("b",)):
        entry = catalog.table("t")
        index = Index(IndexDef(table="t", columns=columns), entry.schema)
        index.build(list(entry.heap.scan()))
        catalog.add_index(index)
        return index

    def test_add_and_lookup(self):
        catalog, _ = fresh_catalog()
        index = self.make_index(catalog)
        assert catalog.get_index(index.definition) is index
        assert catalog.real_index_defs() == [index.definition]

    def test_duplicate_index_rejected(self):
        catalog, _ = fresh_catalog()
        self.make_index(catalog)
        with pytest.raises(ValueError):
            self.make_index(catalog)

    def test_drop_index(self):
        catalog, _ = fresh_catalog()
        index = self.make_index(catalog)
        catalog.drop_index(index.definition)
        assert catalog.get_index(index.definition) is None

    def test_drop_missing_raises(self):
        catalog, _ = fresh_catalog()
        with pytest.raises(KeyError):
            catalog.drop_index(IndexDef(table="t", columns=("c",)))

    def test_total_bytes(self):
        catalog, _ = fresh_catalog()
        index = self.make_index(catalog)
        assert catalog.total_index_bytes() == index.byte_size


class TestWhatIf:
    def test_hypothetical_visible_to_planner_view(self):
        catalog, _ = fresh_catalog()
        hypo = IndexDef(table="t", columns=("b", "c"))
        catalog.set_whatif(hypothetical=[hypo])
        defs = catalog.visible_index_defs("t")
        assert hypo in defs
        assert not catalog.is_materialized(hypo)

    def test_masking_hides_real_index(self):
        catalog, _ = fresh_catalog()
        entry = catalog.table("t")
        index = Index(IndexDef(table="t", columns=("b",)), entry.schema)
        index.build(list(entry.heap.scan()))
        catalog.add_index(index)
        catalog.set_whatif(masked=[index.definition])
        assert index.definition not in catalog.visible_index_defs("t")
        assert not catalog.is_materialized(index.definition)

    def test_visible_order_is_built_then_hypothetical_by_key(self):
        catalog, _ = fresh_catalog()
        entry = catalog.table("t")
        built = Index(IndexDef(table="t", columns=("c",)), entry.schema)
        built.build(list(entry.heap.scan()))
        catalog.add_index(built)
        later = IndexDef(table="t", columns=("b", "c"))
        earlier = IndexDef(table="t", columns=("a", "b"))
        catalog.set_whatif(hypothetical=[later, earlier])
        assert catalog.visible_index_defs("t") == [
            built.definition,
            earlier,
            later,
        ]

    def test_clear_restores(self):
        catalog, _ = fresh_catalog()
        catalog.set_whatif(hypothetical=[IndexDef(table="t", columns=("b",))])
        assert catalog.whatif_active
        catalog.clear_whatif()
        assert not catalog.whatif_active
        assert catalog.visible_index_defs("t") == []

    def test_hypothetical_shape_close_to_real(self):
        catalog, _ = fresh_catalog()
        definition = IndexDef(table="t", columns=("b",))
        hypo_shape = catalog.index_shape(definition)

        entry = catalog.table("t")
        index = Index(definition, entry.schema)
        index.build(list(entry.heap.scan()))
        catalog.add_index(index)
        real_shape = catalog.index_shape(definition)

        assert hypo_shape.height == real_shape.height
        assert hypo_shape.entry_count == real_shape.entry_count
        assert hypo_shape.total_pages == pytest.approx(
            real_shape.total_pages, rel=0.25, abs=2
        )
