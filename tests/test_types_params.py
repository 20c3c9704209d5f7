"""Unit tests for core types and scheme parameters."""

import math

import pytest

from repro.core.params import SchemeParameters
from repro.core.types import RouteFailure, RouteResult


class TestRouteResult:
    def _make(self, **kwargs):
        defaults = dict(
            source=0, target=2, path=[0, 1, 2], cost=2.0, optimal=2.0
        )
        defaults.update(kwargs)
        return RouteResult(**defaults)

    def test_stretch_is_ratio(self):
        assert self._make(cost=3.0).stretch == pytest.approx(1.5)

    def test_self_route_stretch_is_one(self):
        result = RouteResult(
            source=0, target=0, path=[0], cost=0.0, optimal=0.0
        )
        assert result.stretch == 1.0

    def test_hops(self):
        assert self._make().hops == 2

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            RouteResult(source=0, target=0, path=[], cost=0, optimal=0)

    def test_path_must_start_at_source(self):
        with pytest.raises(ValueError):
            self._make(path=[1, 2])

    def test_path_must_reach_target(self):
        with pytest.raises(RouteFailure):
            self._make(path=[0, 1])

    def test_legs_optional(self):
        result = self._make(legs={"zoom": 1.0, "final": 1.0})
        assert sum(result.legs.values()) == pytest.approx(2.0)


class TestSchemeParameters:
    def test_default_epsilon(self):
        assert SchemeParameters().epsilon == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_epsilon_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SchemeParameters(epsilon=bad)

    def test_frozen(self):
        params = SchemeParameters()
        with pytest.raises(Exception):
            params.epsilon = 0.1

    @pytest.mark.parametrize(
        "epsilon,radius,expected",
        [
            (0.5, 16.0, 3),       # floor(log2(8)) = 3
            (0.5, 3.0, 0),        # eps*r < 2 -> flat tree
            (0.25, 1024.0, 8),    # floor(log2(256)) = 8
        ],
    )
    def test_search_tree_levels(self, epsilon, radius, expected):
        params = SchemeParameters(epsilon=epsilon)
        assert params.search_tree_levels(radius) == expected

    def test_search_tree_levels_matches_formula(self):
        params = SchemeParameters(epsilon=0.5)
        radius = 100.0
        assert params.search_tree_levels(radius) == int(
            math.floor(math.log2(0.5 * radius))
        )
