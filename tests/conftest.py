"""Shared fixtures: cached metrics and schemes for the test suite.

Building a GraphMetric (all-pairs Dijkstra) and the schemes on top is the
expensive part of most tests, so everything reusable is session-scoped.
"""

from __future__ import annotations

import pytest

from repro.core.params import SchemeParameters
from repro.graphs.generators import (
    exponential_path,
    grid_2d,
    grid_with_holes,
    random_geometric,
)
from repro.metric.graph_metric import GraphMetric
from repro.nets.hierarchy import NetHierarchy
from repro.packing.ballpacking import BallPacking
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme


@pytest.fixture(scope="session")
def params():
    return SchemeParameters(epsilon=0.5)


#: The generator behind each ``<family>_metric`` fixture.  A metric
#: keeps only its own edge array, so a test that checks the metric
#: against its graph regenerates the graph here.
FAMILY_GRAPHS = {
    "grid": lambda: grid_2d(6),
    "holes": lambda: grid_with_holes(7, hole_fraction=0.25, seed=3),
    "geometric": lambda: random_geometric(48, seed=2),
    "exponential": lambda: exponential_path(14),
}


@pytest.fixture(scope="session")
def grid_metric():
    """6x6 unit grid: the canonical growth-bounded testbed."""
    return GraphMetric(FAMILY_GRAPHS["grid"]())


@pytest.fixture(scope="session")
def holes_metric():
    """Grid with holes: doubling but not growth-bounded."""
    return GraphMetric(FAMILY_GRAPHS["holes"]())


@pytest.fixture(scope="session")
def geometric_metric():
    """Random geometric graph with non-uniform weights."""
    return GraphMetric(FAMILY_GRAPHS["geometric"]())


@pytest.fixture(scope="session")
def exponential_metric():
    """Path with exponentially growing weights: huge normalized diameter."""
    return GraphMetric(FAMILY_GRAPHS["exponential"]())


@pytest.fixture(
    scope="session",
    params=["grid", "holes", "geometric", "exponential"],
)
def any_family(request):
    """Parametrized fixture naming each graph family in turn."""
    return request.param


@pytest.fixture(scope="session")
def any_metric(request, any_family):
    """The metric of ``any_family``: runs a test over all graph families."""
    return request.getfixturevalue(f"{any_family}_metric")


@pytest.fixture(scope="session")
def grid_hierarchy(grid_metric):
    return NetHierarchy(grid_metric)


@pytest.fixture(scope="session")
def grid_packing(grid_metric):
    return BallPacking(grid_metric)


@pytest.fixture(scope="session")
def labeled_nonsf(grid_metric, params):
    return NonScaleFreeLabeledScheme(grid_metric, params)


@pytest.fixture(scope="session")
def labeled_sf(grid_metric, params):
    return ScaleFreeLabeledScheme(grid_metric, params)


@pytest.fixture(scope="session")
def nameind_simple(grid_metric, params):
    return SimpleNameIndependentScheme(grid_metric, params)


@pytest.fixture(scope="session")
def nameind_sf(grid_metric, params, labeled_sf):
    return ScaleFreeNameIndependentScheme(
        grid_metric, params, underlying=labeled_sf
    )


def lemma_3_4_bound(epsilon: float) -> float:
    """Eqn. 6's exact envelope ``1 + 8(1/ε+1)/(1/ε-2)`` (ε < 1/2).

    For ε = 1/2 the denominator vanishes; callers should use a generous
    fixed cap instead.
    """
    inv = 1.0 / epsilon
    if inv <= 2.0:
        raise ValueError("Lemma 3.4's bound needs epsilon < 1/2")
    return 1.0 + 8.0 * (inv + 1.0) / (inv - 2.0)
