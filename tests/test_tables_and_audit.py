"""Tests for table serialization and per-category storage breakdowns."""

import numpy as np
import pytest

from repro.core.bitcount import bits_for_count, bits_for_id
from repro.engine import compile_scheme
from repro.experiments import storage_audit
from repro.graphs.generators import grid_2d
from repro.runtime.bitstream import BitReader, BitWriter
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme

from tests.test_stepwise import local_walk, node_rows

#: What a Lemma 3.1 node stores per ring entry (``table_bits``: a range
#: plus a next hop, one id each).  The weight ``R_W`` of the link a hop
#: names is port data, like the distances ``R_D``: neither is charged.
ENTRY = ("R_LO", "R_HI", "R_NH")


def serialize(rows, id_bits, count_bits):
    """A node's ring rows as bits: its id, its label, the entry count,
    then each entry's fields.  Returns ``(data, bit_length)``."""
    writer = BitWriter()
    writer.write(rows["node"], id_bits)
    writer.write(rows["label"], id_bits)
    writer.write(len(rows["R_NH"]), count_bits)
    for entry in zip(*(rows[name].tolist() for name in ENTRY)):
        for value in entry:
            writer.write(value, id_bits)
    return writer.getvalue(), writer.bit_length


def deserialize(data, bits, id_bits, count_bits):
    reader = BitReader(data, bits)
    rows = {"node": reader.read(id_bits), "label": reader.read(id_bits)}
    count = reader.read(count_bits)
    fields = [[reader.read(id_bits) for _ in ENTRY] for _ in range(count)]
    for k, name in enumerate(ENTRY):
        rows[name] = [entry[k] for entry in fields]
    return rows


@pytest.fixture(scope="module")
def extracted(grid_metric, params):
    scheme = NonScaleFreeLabeledScheme(grid_metric, params)
    tables = compile_scheme(scheme)
    views = {u: node_rows(tables, u) for u in grid_metric.nodes}
    return scheme, views, bits_for_id(grid_metric.n), bits_for_count(grid_metric.n)


class TestSerialization:
    def test_round_trip_every_node(self, extracted, grid_metric):
        _, views, id_bits, count_bits = extracted
        for u in grid_metric.nodes:
            restored = deserialize(*serialize(views[u], id_bits, count_bits), id_bits, count_bits)
            assert restored["node"] == u and restored["label"] == views[u]["label"]
            for name in ENTRY:
                assert restored[name] == views[u][name].tolist()

    def test_deserialized_nodes_route_identically(self, extracted, grid_metric):
        scheme, views, id_bits, count_bits = extracted
        # Rebuild every node's rows from serialized blobs only; the
        # link weights come from the node's own ports.
        rebuilt = {}
        for u in grid_metric.nodes:
            rows = deserialize(*serialize(views[u], id_bits, count_bits), id_bits, count_bits)
            rebuilt[u] = {
                key: value if key in ("node", "label") else np.asarray(value)
                for key, value in rows.items()
            }
            rebuilt[u]["R_W"] = np.asarray(
                [
                    0.0 if hop == u else grid_metric.edge_weight(u, hop)
                    for hop in rows["R_NH"]
                ]
            )
        codec = scheme.header_codec()
        for u, v in [(0, 35), (17, 2), (30, 31)]:
            label = scheme.routing_label(v)
            want = scheme.route(u, v)
            assert local_walk(rebuilt, codec, u, label) == (want.path, want.cost)

    def test_serialized_size_tracks_accounting(self, extracted, grid_metric):
        """Serialized entries cost exactly the charged table bits; the
        rest is framing (the node's id, label and entry count)."""
        scheme, views, id_bits, count_bits = extracted
        for u in grid_metric.nodes:
            _, bits = serialize(views[u], id_bits, count_bits)
            assert bits - (2 * id_bits + count_bits) == scheme.table_bits(u)

    @pytest.mark.parametrize(
        "fixture", ["labeled_sf", "nameind_simple", "nameind_sf"]
    )
    def test_search_tree_rows_fit_their_charge(self, fixture, request, grid_metric):
        """A node's compiled search-tree rows (per slot a parent link,
        per range-owning child a link and a range, and its pairs) fit
        the bits ``SearchForest.slot_bits`` charges for them."""
        scheme = request.getfixturevalue(fixture)
        tables = compile_scheme(scheme)
        unit = bits_for_id(grid_metric.n)
        charged = [0] * grid_metric.n
        forests = [scheme.forest]
        if isinstance(scheme, ScaleFreeNameIndependentScheme):
            forests.insert(0, scheme.underlying.forest)
        for forest in forests:
            for u, bits in enumerate(forest.storage_bits(unit, unit).tolist()):
                charged[u] += bits
        for u in grid_metric.nodes:
            stored = sum(
                unit * (slot["parent"] >= 0)
                + 2 * unit
                + len(slot["children"]) * 3 * unit
                + len(slot["keys"]) * 2 * unit
                for slot in node_rows(tables, u)["slots"].values()
            )
            assert stored <= charged[u]


class TestBreakdowns:
    @pytest.mark.parametrize(
        "scheme_cls",
        [
            NonScaleFreeLabeledScheme,
            ScaleFreeLabeledScheme,
            SimpleNameIndependentScheme,
            ScaleFreeNameIndependentScheme,
        ],
    )
    def test_breakdown_sums_to_table_bits(
        self, scheme_cls, grid_metric, params
    ):
        scheme = scheme_cls(grid_metric, params)
        for v in range(0, grid_metric.n, 5):
            ledger = scheme.table_breakdown(v)
            assert ledger.total() == scheme.table_bits(v)

    def test_nameind_breakdown_has_expected_categories(
        self, nameind_sf, grid_metric
    ):
        categories = set(
            nameind_sf.table_breakdown(0).breakdown()
        )
        assert "netting-tree parent label" in categories
        assert "name search trees" in categories

    def test_breakdown_nonnegative(self, nameind_sf, grid_metric):
        for v in grid_metric.nodes:
            for bits in nameind_sf.table_breakdown(v).breakdown().values():
                assert bits >= 0


class TestStorageAuditExperiment:
    def test_shares_sum_to_one(self):
        result = storage_audit.run(
            suite=[("grid 5x5", grid_2d(5))]
        )
        row = result.rows[0]
        shares = row[2:]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)

    def test_avg_bits_positive(self):
        result = storage_audit.run(suite=[("grid 5x5", grid_2d(5))])
        assert result.rows[0][1] > 0
