"""Tests for the stretch-1 full-table baseline scheme."""

import pytest

from repro.core.params import SchemeParameters
from repro.core.types import PreprocessingError
from repro.schemes.shortest_path import ShortestPathScheme


class TestShortestPathScheme:
    @pytest.fixture(scope="class")
    def scheme(self, grid_metric):
        return ShortestPathScheme(grid_metric)

    def test_stretch_exactly_one(self, scheme, grid_metric):
        for u in range(0, grid_metric.n, 3):
            for v in range(0, grid_metric.n, 5):
                if u == v:
                    continue
                assert scheme.route(u, v).stretch == pytest.approx(1.0)

    def test_path_uses_graph_edges(self, scheme, grid_metric):
        result = scheme.route(0, grid_metric.n - 1)
        for a, b in zip(result.path, result.path[1:]):
            assert b in grid_metric.neighbors(a)

    def test_table_bits_linear(self, scheme, grid_metric):
        expected = (grid_metric.n - 1) * 2 * 6
        assert scheme.table_bits(0) == expected

    def test_header_is_log_n(self, scheme):
        assert scheme.header_bits() == 6

    def test_respects_naming(self, grid_metric):
        naming = list(reversed(range(grid_metric.n)))
        scheme = ShortestPathScheme(
            grid_metric, SchemeParameters(), naming=naming
        )
        result = scheme.route_to_name(0, naming[10])
        assert result.target == 10

    def test_bad_naming_rejected(self, grid_metric):
        with pytest.raises(PreprocessingError):
            ShortestPathScheme(
                grid_metric, SchemeParameters(), naming=[0] * grid_metric.n
            )

    def test_evaluate_summary(self, scheme):
        ev = scheme.evaluate([(0, 1), (0, 2), (3, 4)])
        assert ev.pair_count == 3
        assert ev.max_stretch == pytest.approx(1.0)
        assert ev.mean_stretch == pytest.approx(1.0)

    def test_stretch_guarantee(self, scheme):
        assert scheme.stretch_guarantee() == 1.0

    def test_name_round_trip(self, scheme, grid_metric):
        for v in range(0, grid_metric.n, 7):
            assert scheme.node_with_name(scheme.name_of(v)) == v
