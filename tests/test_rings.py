"""The ring table against a brute-force reference.

Block ``(i, x)`` of the table must hold exactly the nodes ``u`` with
``d(x, u) <= 2^i/ε`` (balls are inclusive within ``DISTANCE_SLACK``),
read from x's full row, each entry's hop must be ``next_hop(u, x)`` from
u's own row, and every node's entries must run in ascending level, then
``hierarchy.net(i)`` order.  The reference below rebuilds that from
``distances_from(x)`` and ``next_hops_from(u)`` alone, for Lemma 3.1
(every level), Theorem 1.2 (the levels of ``R(u)``) and the distance
oracle's labels (which carry no hops).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.edits import EditKind, GraphEdit
from repro.core.params import SchemeParameters
from repro.graphs.generators import exponential_path, grid_2d, random_geometric
from repro.metric.graph_metric import DISTANCE_SLACK, GraphMetric
from repro.nets.rings import Rings
from repro.oracle.distance_oracle import DistanceOracle
from repro.pipeline.context import BuildContext
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme

EPS = 0.5
PARAMS = SchemeParameters(epsilon=EPS)

FIXTURES = {
    "grid8": lambda: GraphMetric(grid_2d(8)),
    "geo128-dense": lambda: GraphMetric(
        random_geometric(128, seed=11), strategy="dense"
    ),
    "geo128-lazy": lambda: GraphMetric(
        random_geometric(128, seed=11), strategy="lazy"
    ),
    "exp12": lambda: GraphMetric(exponential_path(12)),
}


def reference_entries(metric, hierarchy, epsilon):
    """Per node ``[(i, x, lo, hi, d(x, u), next_hop(u, x))]`` from full
    rows of x and u."""
    entries = [[] for _ in metric.nodes]
    for i in hierarchy.levels:
        radius = 2.0**i / epsilon
        for x in hierarchy.net(i):
            lo, hi = hierarchy.range_of(x, i)
            row = metric.distances_from(x)
            for u in metric.nodes:
                if row[u] <= radius + DISTANCE_SLACK:
                    hop = int(metric.next_hops_from(u)[x])
                    entries[u].append((i, x, lo, hi, float(row[u]), hop))
    return entries


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def built(request):
    metric = FIXTURES[request.param]()
    lemma = NonScaleFreeLabeledScheme(metric, PARAMS)
    hierarchy = lemma.hierarchy
    theorem = ScaleFreeLabeledScheme(metric, PARAMS, hierarchy=hierarchy)
    oracle = DistanceOracle(metric, PARAMS, hierarchy=hierarchy)
    # The reference solves full rows, so it runs after every build.
    reference = reference_entries(metric, hierarchy, EPS)
    return metric, lemma, theorem, oracle, reference


class TestEntries:
    def test_lemma_3_1_stores_every_level(self, built):
        metric, lemma, _, _, reference = built
        for u in metric.nodes:
            assert lemma._rings.entries(u) == reference[u]

    def test_theorem_1_2_stores_only_R_u(self, built):
        metric, _, theorem, _, reference = built
        for u in metric.nodes:
            levels = set(theorem.stored_levels(u))
            expected = [e for e in reference[u] if e[0] in levels]
            assert theorem._rings.entries(u) == expected

    def test_oracle_labels_are_the_x_d_pairs(self, built):
        metric, _, _, oracle, reference = built
        for u in metric.nodes:
            expected = {}
            for i, x, _, _, d, _ in reference[u]:
                expected.setdefault(i, {})[x] = d
            label = oracle.label(u)
            assert label == expected
            # Same order too: level first, then net order.
            assert [(i, list(ring)) for i, ring in label.items()] == [
                (i, list(ring)) for i, ring in expected.items()
            ]

    def test_ring_entries_view(self, built):
        metric, lemma, _, _, reference = built
        for u in metric.nodes:
            for i in lemma.hierarchy.levels:
                expected = {
                    x: (lo, hi, d) for j, x, lo, hi, d, _ in reference[u] if j == i
                }
                view = lemma.ring_entries(u, i)
                assert list(view.items()) == list(expected.items())


def test_hit_is_the_first_covering_entry():
    metric = FIXTURES["grid8"]()
    lemma = NonScaleFreeLabeledScheme(metric, PARAMS)
    theorem = ScaleFreeLabeledScheme(metric, PARAMS, hierarchy=lemma.hierarchy)
    reference = reference_entries(metric, lemma.hierarchy, EPS)
    for scheme in (lemma, theorem):
        for u in metric.nodes:
            levels = set(scheme.hierarchy.levels)
            if scheme is theorem:
                levels = set(theorem.stored_levels(u))
            stored = [e for e in reference[u] if e[0] in levels]
            for t in range(metric.n):
                first = next((e for e in stored if e[2] <= t <= e[3]), None)
                assert scheme._rings.hit(u, t) == first


def test_partial_rebuild_equals_a_cold_build():
    """After edits the context promotes the stashed hierarchy, and the
    ring table built on it equals one built from scratch."""
    graph = random_geometric(128, seed=11)
    context = BuildContext()
    before = context.scheme(NonScaleFreeLabeledScheme, context.metric(graph), PARAMS)
    rng = random.Random(5)
    for _ in range(4):
        u, v = rng.choice(sorted(graph.edges()))
        weight = graph[u][v]["weight"] * rng.uniform(1.05, 1.5)
        report = context.apply_edit(
            graph, GraphEdit(EditKind.WEIGHT, edge=(u, v), weight=weight)
        )
        assert not report.full_rebuild
    warm = context.scheme(NonScaleFreeLabeledScheme, context.metric(graph), PARAMS)
    assert warm is not before and warm.hierarchy is before.hierarchy
    cold = NonScaleFreeLabeledScheme(GraphMetric(graph.copy()), PARAMS)

    for u in warm.metric.nodes:
        assert warm._rings.entries(u) == cold._rings.entries(u)
    warm_arrays, cold_arrays = warm._rings.arrays(), cold._rings.arrays()
    assert sorted(warm_arrays) == ["R_D", "R_HI", "R_LO", "R_LVL", "R_NH", "R_X"]
    for name, array in cold_arrays.items():
        assert warm_arrays[name].dtype == array.dtype
        assert np.array_equal(warm_arrays[name], array)


def test_arrays_pad_with_an_empty_range():
    metric = FIXTURES["exp12"]()
    scheme = ScaleFreeLabeledScheme(metric, PARAMS)
    arrays = scheme._rings.arrays()
    for u in metric.nodes:
        entries = scheme._rings.entries(u)
        k = len(entries)
        names = ("LVL", "X", "LO", "HI", "D", "NH")
        row = [
            tuple(arrays[f"R_{name}"][u, col].item() for name in names)
            for col in range(k)
        ]
        assert row == entries
        assert (arrays["R_LO"][u, k:] == 1).all() and (arrays["R_HI"][u, k:] == 0).all()


def test_empty_table():
    metric = GraphMetric(grid_2d(2))
    lemma = NonScaleFreeLabeledScheme(metric, PARAMS)
    nothing = [[] for _ in metric.nodes]
    rings = Rings(metric, lemma.hierarchy, EPS, stored_levels=nothing)
    assert [rings.count(u) for u in metric.nodes] == [0] * metric.n
    assert rings.hit(0, 0) is None
    assert rings.arrays()["R_LO"].shape == (metric.n, 1)
