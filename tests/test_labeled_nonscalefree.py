"""Tests for the non-scale-free (1+eps)-stretch labeled scheme (Lemma 3.1)."""

import pytest

from repro.core.bitcount import bits_for_id
from repro.core.params import SchemeParameters
from repro.core.types import PreprocessingError, RouteFailure
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme


class TestConstruction:
    def test_large_epsilon_rejected(self, grid_metric):
        with pytest.raises(PreprocessingError):
            NonScaleFreeLabeledScheme(
                grid_metric, SchemeParameters(epsilon=0.75)
            )

    def test_labels_are_netting_tree_labels(self, labeled_nonsf):
        hierarchy = labeled_nonsf.hierarchy
        for v in labeled_nonsf.metric.nodes:
            assert labeled_nonsf.routing_label(v) == hierarchy.label(v)

    def test_label_bits_is_ceil_log_n(self, labeled_nonsf, grid_metric):
        assert labeled_nonsf.label_bits() == bits_for_id(grid_metric.n)

    def test_rings_cover_all_levels(self, labeled_nonsf, grid_metric):
        """Non-scale-free: EVERY level is stored (the log-Delta factor)."""
        hierarchy = labeled_nonsf.hierarchy
        for u in range(0, grid_metric.n, 7):
            for i in hierarchy.levels:
                ring = labeled_nonsf.ring_entries(u, i)
                expected = hierarchy.ring(u, i, 0.5)
                assert sorted(ring) == sorted(expected)

    def test_ring_entries_carry_true_distance(self, labeled_nonsf, grid_metric):
        for u in (0, 13, 30):
            for i in labeled_nonsf.hierarchy.levels:
                for x, (_, _, dist) in labeled_nonsf.ring_entries(
                    u, i
                ).items():
                    assert dist == pytest.approx(grid_metric.distance(u, x))


class TestRouting:
    def test_reaches_every_destination(self, labeled_nonsf, grid_metric):
        for u in range(0, grid_metric.n, 5):
            for v in grid_metric.nodes:
                if u == v:
                    continue
                result = labeled_nonsf.route(u, v)
                assert result.target == v

    def test_stretch_bound(self, labeled_nonsf, grid_metric):
        """Measured stretch obeys 1 + O(eps) (constant-8 envelope)."""
        eps = labeled_nonsf.params.epsilon
        ev = labeled_nonsf.evaluate()
        assert ev.max_stretch <= 1 + 8 * eps

    def test_path_is_hop_by_hop(self, labeled_nonsf, grid_metric):
        result = labeled_nonsf.route(0, grid_metric.n - 1)
        for a, b in zip(result.path, result.path[1:]):
            assert b in grid_metric.neighbors(a)

    def test_self_route(self, labeled_nonsf):
        result = labeled_nonsf.route(4, 4)
        assert result.cost == 0.0
        assert result.path == [4]

    def test_bad_label_rejected(self, labeled_nonsf, grid_metric):
        with pytest.raises(RouteFailure):
            labeled_nonsf.route_to_label(0, grid_metric.n)

    def test_min_level_hit_finds_zoom_ancestor(
        self, labeled_nonsf, grid_metric
    ):
        hierarchy = labeled_nonsf.hierarchy
        for u, v in [(0, 35), (12, 3), (20, 21)]:
            i, x, _ = labeled_nonsf.min_level_hit(
                u, labeled_nonsf.routing_label(v)
            )
            assert x == hierarchy.zoom(v, i)

    def test_smaller_epsilon_tightens_stretch(self, grid_metric):
        loose = NonScaleFreeLabeledScheme(
            grid_metric, SchemeParameters(epsilon=0.5)
        )
        tight = NonScaleFreeLabeledScheme(
            grid_metric, SchemeParameters(epsilon=0.125)
        )
        pairs = [(u, v) for u in range(0, 36, 4) for v in range(1, 36, 5)
                 if u != v]
        assert tight.evaluate(pairs).max_stretch <= (
            loose.evaluate(pairs).max_stretch + 1e-9
        )

    def test_works_on_all_families(self, any_metric, params):
        scheme = NonScaleFreeLabeledScheme(any_metric, params)
        pairs = [
            (u, v)
            for u in range(0, any_metric.n, 5)
            for v in range(0, any_metric.n, 3)
            if u != v
        ]
        ev = scheme.evaluate(pairs)
        assert ev.max_stretch <= 1 + 8 * params.epsilon


class TestStorage:
    def test_header_is_one_label(self, labeled_nonsf):
        assert labeled_nonsf.header_bits() == labeled_nonsf.label_bits()

    def test_table_bits_counts_ring_entries(self, labeled_nonsf):
        u = 0
        entries = sum(
            len(labeled_nonsf.ring_entries(u, i))
            for i in labeled_nonsf.hierarchy.levels
        )
        assert labeled_nonsf.table_bits(u) == entries * 3 * 6

    def test_storage_grows_with_log_delta(self, exponential_metric, params):
        """The log-Delta dependence this scheme is named for."""
        from repro.graphs.generators import exponential_path
        from repro.metric.graph_metric import GraphMetric

        small_delta = GraphMetric(exponential_path(14, base=1.2))
        big_delta = exponential_metric  # base 2.0, same n
        assert big_delta.log_diameter > small_delta.log_diameter
        small_scheme = NonScaleFreeLabeledScheme(small_delta, params)
        big_scheme = NonScaleFreeLabeledScheme(big_delta, params)
        assert (
            big_scheme.max_table_bits() > small_scheme.max_table_bits()
        )
