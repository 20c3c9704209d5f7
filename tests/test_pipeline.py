"""Tests for the shared-substrate build pipeline (repro.pipeline)."""

from __future__ import annotations

import functools

import pytest

from repro.core.params import SchemeParameters
from repro.experiments.harness import sample_pairs
from repro.experiments.table1 import SCHEMES as TABLE1_SCHEMES
from repro.graphs.generators import grid_2d, random_geometric
from repro.pipeline.context import BuildContext, graph_content_key
from repro.pipeline.registry import REGISTRY, run_experiment
from repro.pipeline.parallel import chunk_evenly, resolve_jobs
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme


@pytest.fixture(scope="module")
def graph():
    return grid_2d(5)


# -- substrate sharing ------------------------------------------------------


def test_two_schemes_share_substrates(graph):
    """Two schemes built from one context hold the *same* substrate objects."""
    context = BuildContext()
    metric = context.metric(graph)
    params = SchemeParameters(epsilon=0.5)
    simple = context.scheme(SimpleNameIndependentScheme, metric, params)
    scalefree = context.scheme(ScaleFreeNameIndependentScheme, metric, params)
    assert simple.hierarchy is scalefree.hierarchy
    assert scalefree.underlying.packing is context.packing(metric)
    assert simple.hierarchy is context.hierarchy(metric)


def test_table1_schemes_build_each_substrate_once(graph):
    """All Table-1 schemes on one graph: APSP, hierarchy, packing once each."""
    context = BuildContext()
    params = SchemeParameters(epsilon=0.5)
    metric = context.metric(graph)
    for scheme_cls, _label in TABLE1_SCHEMES:
        context.scheme(scheme_cls, metric, params)
    assert context.stats.built("metric") == 1
    assert context.stats.built("hierarchy") == 1
    assert context.stats.built("packing") == 1


def test_repeated_builds_hit_the_cache(graph):
    context = BuildContext()
    metric = context.metric(graph)
    assert context.metric(graph) is metric
    first = context.scheme(SimpleNameIndependentScheme, metric)
    again = context.scheme(SimpleNameIndependentScheme, metric)
    assert first is again
    assert context.stats.hits.get("scheme", 0) >= 1
    assert context.stats.built("scheme") >= 1  # the underlying + the wrapper


# -- cache-key sensitivity --------------------------------------------------


def test_epsilon_change_misses_scheme_cache(graph):
    context = BuildContext()
    metric = context.metric(graph)
    coarse = context.scheme(
        SimpleNameIndependentScheme, metric, SchemeParameters(epsilon=0.5)
    )
    fine = context.scheme(
        SimpleNameIndependentScheme, metric, SchemeParameters(epsilon=0.25)
    )
    assert coarse is not fine
    # ...but the epsilon-independent hierarchy is still shared.
    assert context.stats.built("hierarchy") == 1


def test_edge_weight_change_misses_metric_cache():
    context = BuildContext()
    g1 = grid_2d(4)
    g2 = grid_2d(4)
    u, v = next(iter(g2.edges()))
    g2[u][v]["weight"] = 7.0
    assert graph_content_key(g1) != graph_content_key(g2)
    m1 = context.metric(g1)
    m2 = context.metric(g2)
    assert m1 is not m2
    assert context.stats.built("metric") == 2


def test_graph_content_key_is_content_based():
    assert graph_content_key(grid_2d(4)) == graph_content_key(grid_2d(4))


def test_editing_the_graph_after_the_metric_aliases_no_cache_entry():
    """Regression: a metric's key was read off the caller's live graph.

    A metric built before an out-of-band weight poke was keyed by the
    poked graph, so its scheme was served for the edited graph too.
    """
    from repro.metric.graph_metric import GraphMetric
    from repro.schemes.shortest_path import ShortestPathScheme

    graph = grid_2d(6)
    metric = GraphMetric(graph)
    key = BuildContext().metric_key(metric)
    assert key[0] == graph_content_key(graph)
    graph[0][1]["weight"] = 7.0

    context = BuildContext()
    stale = context.scheme(ShortestPathScheme, metric)
    fresh = context.scheme(ShortestPathScheme, context.metric(graph))
    assert fresh is not stale
    assert stale.metric.distance(0, 1) == 1.0
    assert fresh.metric.distance(0, 1) == 3.0  # round 0-6-7-1
    assert context.metric_key(metric) == key


def test_a_labelled_metric_has_one_key_in_every_context():
    """Regression: ``BuildContext.metric`` keyed a metric with its node
    labels and ``metric_key`` anywhere else without them, so a labelled
    metric's artifacts landed under a key that depended on where the
    metric was built."""
    import pickle

    import networkx as nx

    from repro.metric.graph_metric import GraphMetric

    graph = nx.grid_2d_graph(3, 3)
    context = BuildContext()
    metric = context.metric(graph)
    key = context.metric_key(metric)
    assert key[0] == graph_content_key(graph)
    assert BuildContext().metric_key(metric) == key
    assert BuildContext().metric_key(pickle.loads(pickle.dumps(metric))) == key

    params = SchemeParameters(epsilon=0.5)
    scheme = context.scheme(SimpleNameIndependentScheme, metric, params)
    built = dict(context.stats.misses)
    again = context.scheme(SimpleNameIndependentScheme, GraphMetric(graph), params)
    assert again is scheme
    assert context.stats.misses == built


# -- on-disk cache ----------------------------------------------------------


def test_disk_cache_round_trip(tmp_path, graph):
    cache_dir = str(tmp_path / "repro-cache")
    params = SchemeParameters(epsilon=0.5)

    first = BuildContext(cache_dir=cache_dir)
    metric = first.metric(graph)
    scheme = first.scheme(ScaleFreeNameIndependentScheme, metric, params)
    pairs = first.pairs(metric, 40)
    want = [scheme.route(u, v) for u, v in pairs]
    assert first.stats.built("metric") == 1

    second = BuildContext(cache_dir=cache_dir)
    metric2 = second.metric(graph)
    scheme2 = second.scheme(ScaleFreeNameIndependentScheme, metric2, params)
    assert second.stats.built("metric") == 0  # loaded, not rebuilt
    assert sum(second.stats.disk_hits.values()) >= 1
    got = [scheme2.route(u, v) for u, v in second.pairs(metric2, 40)]
    assert [(r.path, r.stretch) for r in got] == [
        (r.path, r.stretch) for r in want
    ]


@pytest.mark.parametrize(
    "junk", [b"not a pickle", b"garbage\n", b"", b"\x80\x05trunc"]
)
def test_corrupt_disk_entry_is_rebuilt(tmp_path, graph, junk):
    cache_dir = tmp_path / "repro-cache"
    first = BuildContext(cache_dir=str(cache_dir))
    first.metric(graph)
    for entry in cache_dir.iterdir():
        entry.write_bytes(junk)
    second = BuildContext(cache_dir=str(cache_dir))
    second.metric(graph)
    assert second.stats.built("metric") == 1


# -- parallel evaluation ----------------------------------------------------


def test_parallel_evaluate_matches_serial(graph):
    context = BuildContext()
    metric = context.metric(graph)
    scheme = context.scheme(
        ScaleFreeNameIndependentScheme, metric, SchemeParameters(epsilon=0.5)
    )
    pairs = context.pairs(metric, 60)
    serial = scheme.evaluate(pairs)
    parallel = scheme.evaluate(pairs, jobs=2)
    assert parallel == serial  # dataclass equality: every field bit-identical


def test_chunk_evenly_preserves_order_and_content():
    items = list(range(13))
    chunks = chunk_evenly(items, 4)
    assert [x for chunk in chunks for x in chunk] == items
    assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


# -- pair sampling ----------------------------------------------------------


def test_sample_pairs_exclusion_predicate(graph):
    context = BuildContext()
    metric = context.metric(graph)
    forbidden = {0, 1, 2}
    pairs = sample_pairs(
        metric, 50, exclude=lambda u, v: u in forbidden or v in forbidden
    )
    assert pairs
    assert all(u not in forbidden and v not in forbidden for u, v in pairs)
    assert all(u != v for u, v in pairs)


def test_sample_ordered_pairs_deterministic_and_distinct():
    a = sample_ordered_pairs(30, 100, seed=5)
    b = sample_ordered_pairs(30, 100, seed=5)
    assert a == b
    assert len(set(a)) == len(a) == 100
    assert sample_ordered_pairs(30, 100, seed=6) != a


def test_sample_ordered_pairs_exhaustive_when_count_exceeds_pairs():
    pairs = sample_ordered_pairs(4, 1000)
    assert len(pairs) == 4 * 3
    assert len(set(pairs)) == 12


# -- registry ---------------------------------------------------------------


def test_registry_covers_every_experiment_module():
    assert "table1" in REGISTRY and "storage-audit" in REGISTRY
    assert len(REGISTRY) >= 14


def test_run_experiment_unknown_name_raises():
    with pytest.raises(KeyError):
        run_experiment("no-such-experiment")


def test_run_experiment_shares_context_across_calls():
    context = BuildContext()
    suite_graph = random_geometric(24, seed=3)
    # Prime the context, then confirm a registry run reuses its artifacts.
    context.metric(suite_graph)
    tables = run_experiment(
        "structures", epsilon=0.5, pair_count=20, context=context
    )
    assert tables and all(t.rows for t in tables)


def test_run_experiment_fig3_keeps_the_tree_epsilon():
    # The scheme epsilon must reach run_adversary as scheme_epsilon: as
    # its ``epsilon`` it would ask for the tree of eps = 0.5, which
    # needs n >= 13801 nodes.
    tables = run_experiment(
        "fig3", epsilon=0.5, pair_count=10, n=96, namings=1, routes_per_naming=4
    )
    assert len(tables) == 3 and all(t.rows for t in tables)


def _record_runners(monkeypatch, module, names):
    """Replace ``module``'s runners with recorders of the keywords each
    receives (same signatures, so dispatch filters as for the real
    ones); returns ``{runner: kwargs}``."""
    seen = {}
    for name in names:
        original = getattr(module, name)

        @functools.wraps(original)
        def record(_name=name, **kwargs):
            seen[_name] = kwargs
            return []

        monkeypatch.setattr(module, name, record)
    return seen


def test_run_experiment_fig3_n_sizes_only_the_adversary_tree(monkeypatch):
    from repro.experiments import fig3

    names = ("run_construction", "run_counting", "run_adversary")
    seen = _record_runners(monkeypatch, fig3, names)
    run_experiment("fig3", n=96)
    assert seen["run_adversary"]["n"] == 96
    assert "n" not in seen["run_construction"]
    assert "n" not in seen["run_counting"]


def test_run_experiment_scale_sizes_reach_only_the_scaling_study(monkeypatch):
    from repro.experiments import scale

    names = ("run", "run_doubling", "run_landmark_sweep")
    seen = _record_runners(monkeypatch, scale, names)
    run_experiment("scale", sizes=(256, 2048, 10000))
    assert seen["run"]["sizes"] == (256, 2048, 10000)
    assert "sizes" not in seen["run_doubling"]


def test_run_experiment_chaos_loss_is_shared(monkeypatch):
    # ``loss`` means the channel loss rate in both chaos runners, so it
    # deliberately reaches both.
    from repro.experiments import chaos

    seen = _record_runners(monkeypatch, chaos, ("run", "run_degraded", "run_audit"))
    run_experiment("chaos", loss=0.2)
    assert seen["run"]["loss"] == seen["run_degraded"]["loss"] == 0.2
    assert "loss" not in seen["run_audit"]


# -- metric cache identity (normalization and object lifetime) --------------


def test_normalized_and_raw_metrics_never_share_artifacts():
    """Regression: ``normalize=False`` used to inherit normalized artifacts.

    On a graph with min edge weight != 1 the two metrics have different
    distances, so hierarchies/packings/pairs/schemes built for one are
    wrong for the other.  The metric key must carry the applied scale.
    """
    import networkx as nx

    graph = nx.path_graph(8)
    for u, v in graph.edges():
        graph[u][v]["weight"] = 4.0
    context = BuildContext()
    normalized = context.metric(graph, normalize=True)
    raw = context.metric(graph, normalize=False)
    assert normalized.distance(0, 1) == pytest.approx(1.0)
    assert raw.distance(0, 1) == pytest.approx(4.0)
    assert context.metric_key(normalized) != context.metric_key(raw)
    h_norm = context.hierarchy(normalized)
    h_raw = context.hierarchy(raw)
    assert h_norm is not h_raw
    assert context.packing(normalized) is not context.packing(raw)
    s_norm = context.scheme(SimpleNameIndependentScheme, normalized)
    s_raw = context.scheme(SimpleNameIndependentScheme, raw)
    assert s_norm is not s_raw
    assert s_raw.metric is raw


def test_normalize_flag_shares_artifacts_when_scale_is_one(graph):
    """With min weight 1 both flags define the same metric: share away."""
    context = BuildContext()
    normalized = context.metric(graph, normalize=True)
    raw = context.metric(graph, normalize=False)
    assert context.metric_key(normalized) == context.metric_key(raw)
    assert context.hierarchy(normalized) is context.hierarchy(raw)


def test_metric_key_survives_id_reuse():
    """Regression: id()-keyed cache could serve a dead metric's key.

    The mapping must hold the metric weakly by object, so a collected
    metric's entry disappears instead of waiting for a new object to
    reuse the id and inherit the wrong content hash.
    """
    import gc
    import weakref

    from repro.metric.graph_metric import GraphMetric

    context = BuildContext()
    keys = []
    refs = []
    for n in (12, 16):
        metric = GraphMetric(random_geometric(n, seed=n))
        keys.append(context.metric_key(metric))
        refs.append(weakref.ref(metric))
        del metric
        gc.collect()
        assert refs[-1]() is None, "context must not keep the metric alive"
        assert len(context._metric_keys) == 0
    assert keys[0] != keys[1]
    # A fresh metric (plausibly reusing a freed id) gets its own key.
    fresh = GraphMetric(random_geometric(12, seed=12))
    assert context.metric_key(fresh) == keys[0]


def test_profile_report_shape(graph):
    context = BuildContext()
    context.metric(graph)
    report = context.profile_report()
    assert report["kinds"]["metric"]["misses"] == 1
    assert report["kinds"]["metric"]["build_seconds"] > 0.0


def test_metric_strategies_are_distinct_cache_entries(graph):
    context = BuildContext()
    dense = context.metric(graph, strategy="dense")
    lazy = context.metric(graph, strategy="lazy")
    assert dense is not lazy
    assert dense.strategy == "dense" and lazy.strategy == "lazy"
    # Same key -> same object; strategy is part of the metric key only.
    assert context.metric(graph, strategy="lazy") is lazy
    # Downstream artifacts are keyed by (content, scale) and shared.
    assert context.metric_key(dense) == context.metric_key(lazy)
    assert context.hierarchy(dense) is context.hierarchy(lazy)


def test_lazy_metric_disk_cache_stores_materialized_rows(tmp_path, graph):
    cache_dir = str(tmp_path / "cache")
    warm = BuildContext(cache_dir=cache_dir)
    metric = warm.metric(graph, strategy="lazy")
    metric.distances_from(0)
    # Rebuild through a second context: the artifact was pickled at
    # build time (zero materialized rows) and must answer identically.
    cold = BuildContext(cache_dir=cache_dir)
    loaded = cold.metric(graph, strategy="lazy")
    assert cold.stats.disk_hits.get("metric") == 1
    assert (loaded.distances_from(0) == metric.distances_from(0)).all()


def test_profile_report_substrate_section(graph):
    context = BuildContext()
    metric = context.metric(graph, strategy="lazy")
    metric.ball(0, 1.5)
    report = context.profile_report()
    section = report["substrate"]
    assert section["bounded_searches"] >= 1
    assert section["rows_materialized"] == 0
    assert "row_store_hit_rate" in section
