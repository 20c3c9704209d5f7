"""Failure-injection tests: corrupted routing state must be *detected*.

A compact routing scheme's tables are distributed state; a production
implementation must fail loudly (misdelivery detection, convergence
guards) rather than silently deliver to the wrong node or loop forever.
These tests corrupt specific table entries and assert the defined
failure behaviour.
"""

import threading

import networkx as nx
import pytest

from repro.chaos.audit import CorruptionInjector
from repro.core.params import SchemeParameters
from repro.core.types import RouteFailure
from repro.metric.graph_metric import GraphMetric
from repro.graphs.generators import exponential_path, grid_2d
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.searchtree.tree import SearchTree


def _within(seconds, fn):
    """``fn()``, run in a daemon thread; fails if it has not returned
    within ``seconds`` (a walk that never ends) or raised."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    assert result, "raised (see the thread exception warning)"
    return result[0]


@pytest.fixture()
def fresh_scheme():
    """A private scheme instance safe to corrupt (function-scoped)."""
    metric = GraphMetric(grid_2d(5))
    return SimpleNameIndependentScheme(metric, SchemeParameters())


class TestMisdeliveryDetection:
    def test_corrupted_search_tree_label_detected(self, fresh_scheme):
        """Swapping a stored label makes the final leg deliver to the
        wrong node; the destination name check must catch it."""
        scheme = fresh_scheme
        metric = scheme.metric
        target = metric.n - 1
        wrong = metric.n - 2
        wrong_label = scheme.underlying.routing_label(wrong)
        name = scheme.name_of(target)
        # Corrupt every copy of (name -> label) in the forest holding
        # every search tree: the data the lookups return.
        forest = scheme.forest
        for keys, data in zip(forest.keys, forest.data):
            if name in keys:
                data[keys.index(name)] = wrong_label
        with pytest.raises(RouteFailure, match="misdelivery"):
            scheme.route(0, target)

    def test_uncorrupted_routes_still_work(self, fresh_scheme):
        result = fresh_scheme.route(0, fresh_scheme.metric.n - 1)
        assert result.target == fresh_scheme.metric.n - 1


class TestMissingState:
    def test_missing_pairs_everywhere_raises(self, fresh_scheme):
        """Erasing a name from every search tree (a lost registration)
        must raise rather than loop: the top level reports a miss."""
        scheme = fresh_scheme
        name = scheme.name_of(3)
        forest = scheme.forest
        for t, keys in enumerate(forest.keys):
            if name in keys:
                at = keys.index(name)
                forest.keys[t] = keys[:at] + keys[at + 1 :]
                forest.data[t] = forest.data[t][:at] + forest.data[t][at + 1 :]
        with pytest.raises(RouteFailure):
            scheme.route(0, 3)

    def test_search_range_corruption_is_a_miss_not_a_crash(self):
        """Corrupting subtree ranges makes lookups miss; Algorithm 2
        still terminates and reports not-found."""
        metric = GraphMetric(grid_2d(4))
        tree = SearchTree(metric, 0, metric.diameter, 0.5)
        tree.store({v: v for v in tree.nodes})
        victim = tree.nodes[-1]
        # Subtree ranges are read off the sorted keys (Algorithm 1's
        # closed form): push every key the descend compares past the
        # victim, so no child range can contain it.
        keys = tree.forest.keys[tree.index]
        tree.forest.keys[tree.index] = [10**6 + i for i in range(len(keys))]
        outcome = tree.search(victim)
        assert not outcome.found
        assert outcome.trail[0] == tree.root


class TestEscalation:
    def test_labeled_scalefree_escalates_past_corrupted_search_tree(self):
        """If the prescribed level's search tree loses the target entry
        (Lemma 4.5 violated by corruption), Algorithm 5 escalates to
        coarser packing levels and still delivers — counting fallbacks."""
        from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
        from repro.graphs.generators import exponential_path

        metric = GraphMetric(exponential_path(12))
        scheme = ScaleFreeLabeledScheme(metric, SchemeParameters())
        # Find a route that uses the Voronoi phase, then corrupt the
        # search trees at every level except the global one.
        top = metric.log_n
        for j in range(top):
            for searcher in scheme._searchers[j].values():
                searcher.store({})
        before = scheme.fallback_count
        for u in metric.nodes:
            for v in metric.nodes:
                if u != v:
                    assert scheme.route(u, v).target == v
        # The global (j = log n) level served the corrupted lookups.
        assert scheme.fallback_count >= before

    def test_global_level_alone_suffices(self):
        """The j = log n Voronoi tree spans V and its search tree holds
        every label — the escalation endpoint is always complete."""
        from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
        from repro.graphs.generators import grid_2d as grid

        metric = GraphMetric(grid(4))
        scheme = ScaleFreeLabeledScheme(metric, SchemeParameters())
        top = metric.log_n
        searchers = scheme._searchers[top]
        assert len(searchers) == 1
        (tree,) = searchers.values()
        for v in metric.nodes:
            assert tree.lookup_everywhere(scheme.routing_label(v))


class TestConvergenceGuards:
    def test_labeled_walk_guard_trips_on_cyclic_hops(self):
        """If next hops are corrupted into a cycle, the walk guard must
        raise instead of looping forever."""
        metric = GraphMetric(grid_2d(4))
        scheme = NonScaleFreeLabeledScheme(metric, SchemeParameters())

        flip = {0: 1, 1: 0}
        # The next hops live in the ring entries (their last field).
        rows = scheme._rings._rows
        for u in metric.nodes:
            rows[u] = [entry[:-1] + (flip.get(u, 1),) for entry in rows[u]]
        with pytest.raises(RouteFailure):
            scheme.route(0, metric.n - 1)

    def test_corrupted_metric_rows_fail_the_baseline_typed(self):
        """Corrupted rows can send the metric's shortest-path walk to a
        non-neighbour: every pair must route or raise RouteFailure."""
        metric = GraphMetric(exponential_path(16))
        scheme = ShortestPathScheme(metric)
        CorruptionInjector(seed=3).corrupt(metric, [1, 5, 9, 13])

        def probe():
            failed = 0
            for u, v in sample_ordered_pairs(16, 60, seed=0):
                try:
                    scheme.route(u, v)
                except RouteFailure:
                    failed += 1
            return failed

        assert _within(30, probe) > 0

    def test_metric_walk_cap_trips_on_a_next_hop_cycle(self):
        """Node 1's corrupted row steps back to 0 on its way to 3, and
        0's steps to 1: the walk from 0 must stop after n - 1 hops."""
        metric = GraphMetric(nx.path_graph(4))
        _, pred = metric.mutable_row(1)
        pred[3] = 0
        metric.invalidate_derived(1)
        assert (metric.next_hop(0, 3), metric.next_hop(1, 3)) == (1, 0)

        def walk():
            try:
                metric.shortest_path(0, 3)
            except RouteFailure as exc:
                return str(exc)
            return "no failure"

        assert "0->3" in _within(30, walk)

    def test_bad_name_rejected_before_any_hop(self, fresh_scheme):
        with pytest.raises(RouteFailure):
            fresh_scheme.route_to_name(0, -7)
