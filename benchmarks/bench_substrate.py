"""Benchmark the two-tier metric substrate (the O(n²) ceiling break).

Reproduces the numbers recorded in ``BENCH_substrate.json``: the
n = 256 → 10⁴ build trajectory of the lazy substrate under the landmark
name-independent scheme on a preferential-attachment graph — build
seconds (graph / metric / scheme split), full Dijkstra rows
materialized, nodes settled by bounded searches (in total and per
node), ``tracemalloc`` peak and process RSS high water, average
stretch on a fixed pair sample — plus a dense-vs-lazy head-to-head at
n = 256 where both strategies are buildable.  Each point builds twice:
the timed build runs untraced (tracing every allocation slows a build
several-fold), and the ``tracemalloc`` peak comes from a second,
identical build.

Run with ``PYTHONPATH=src python benchmarks/bench_substrate.py``
(writes ``BENCH_substrate.json``; ~1-2 minutes, dominated by the
n = 10⁴ point).  Pass ``--check`` for the CI variant: deterministic
invariants only, no wall-clock assertions —

* lazy answers (distances, balls, next hops) bit-identical to dense on
  a sampled grid of queries at n = 256;
* the landmark scheme builds and routes at n = 2048 with
  ``rows_materialized`` a small fraction of n (the acceptance counter
  behind "never materialize the dense matrix"), and 50 sampled nodes'
  vicinity entries equal ``(node, home landmark, next hop)`` from
  per-pair queries on a fresh metric — past the dense→lazy switch,
  where the unit tests do not reach;
* that build's searches settle at most ``8 · size · n`` nodes (size
  = the vicinity size): first size queries start at their size class's
  median covering radius instead of the largest one seen;
* a 4 MiB row budget is respected (evictions occur, stored bytes stay
  under budget) with answers unchanged.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import tracemalloc

import numpy as np

from _runner import run
from repro.graphs.generators import preferential_attachment, random_geometric
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme

SIZES = (256, 2048, 10_000)
PAIRS = 100


def _rss_bytes() -> int:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def _build(n: int, strategy: str):
    """Graph → metric → landmark scheme, with the time of each stage."""
    t0 = time.perf_counter()
    graph = preferential_attachment(n, m=2, seed=1)
    t1 = time.perf_counter()
    metric = GraphMetric(graph, strategy=strategy)
    t2 = time.perf_counter()
    scheme = LandmarkNameIndependentScheme(metric)
    t3 = time.perf_counter()
    return metric, scheme, (t0, t1, t2, t3)


def _traced_peak(n: int, strategy: str) -> int:
    """``tracemalloc`` high water of one more (untimed) build."""
    tracemalloc.start()
    try:
        _build(n, strategy)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_point(n: int, strategy: str = "lazy") -> dict:
    """One trajectory point: build + route at size ``n``."""
    metric, scheme, (t0, t1, t2, t3) = _build(n, strategy)
    build_stats = dict(metric.substrate_stats())
    settled = int(build_stats["nodes_settled"])
    stretches = [
        scheme.route(u, v).stretch
        for u, v in sample_ordered_pairs(n, PAIRS, seed=0)
    ]
    rss = _rss_bytes()
    return {
        "n": n,
        "strategy": metric.strategy,
        "graph_seconds": round(t1 - t0, 3),
        "metric_seconds": round(t2 - t1, 3),
        "scheme_seconds": round(t3 - t2, 3),
        "build_seconds": round(t3 - t0, 3),
        "rows_materialized": int(build_stats["rows_materialized"]),
        "rows_after_routing": int(
            metric.substrate_stats()["rows_materialized"]
        ),
        "bounded_searches": int(build_stats["bounded_searches"]),
        "nodes_settled": settled,
        "nodes_settled_per_node": round(settled / n, 1),
        "stored_bytes": int(build_stats["stored_bytes"]),
        "traced_peak_bytes": _traced_peak(n, strategy),
        "rss_high_water_bytes": rss,
        "avg_stretch": round(float(np.mean(stretches)), 4),
        "max_stretch": round(float(np.max(stretches)), 4),
        "avg_table_bits": int(scheme.total_table_bits() / n),
        "dense_matrix_bytes_hypothetical": int(n * n * (8 + 4)),
    }


def landmark_sweep_row() -> dict:
    """One committed row of the E19c landmark/vicinity sizing sweep.

    The ``vicinity = 4·√n`` point at ``landmarks = √n`` — the cell that
    shows stretch falling toward the Krioukov–Fall–Yang near-1 regime
    once vicinities pass the hub scale (run ``python -m repro scale``
    for the full sweep).
    """
    from repro.experiments.scale import run_landmark_sweep

    table = run_landmark_sweep(
        pair_count=200, vicinity_scale=(4.0,), landmarks=(16,)
    )
    row = {
        column: value
        for column, value in zip(table.columns, table.rows[0])
    }
    return {
        "experiment": "E19c",
        "graph": "preferential_attachment(256, m=2, seed=1)",
        **row,
    }


def measure() -> dict:
    points = [measure_point(n) for n in SIZES]
    # Head-to-head at the smallest size, where dense is cheap.
    head_to_head = {
        strategy: measure_point(SIZES[0], strategy=strategy)
        for strategy in ("dense", "lazy")
    }
    return {
        "graph_family": "preferential_attachment(m=2, seed=1)",
        "scheme": "LandmarkNameIndependentScheme",
        "pair_sample": PAIRS,
        "landmark_sweep": landmark_sweep_row(),
        "trajectory": points,
        "head_to_head_n256": head_to_head,
        "note": (
            "rows_materialized counts full Dijkstra rows ever solved; "
            "nodes_settled sums the nodes every single-source search "
            "of the build settled; "
            "dense_matrix_bytes_hypothetical is what the eager APSP "
            "(float64 dist + int32 pred) would allocate at that n; "
            "*_seconds come from an untraced build and traced_peak_bytes "
            "from a second, traced build of the same point"
        ),
    }


def check() -> None:
    """CI invariants (deterministic, no wall-clock assertions)."""
    # 1. Strategy equivalence on a non-doubling graph: same distances,
    #    balls, and next hops from both substrates.
    graph = preferential_attachment(256, m=2, seed=1)
    dense = GraphMetric(graph, strategy="dense")
    lazy = GraphMetric(graph, strategy="lazy")
    rng = np.random.default_rng(7)
    for u, v in rng.integers(0, dense.n, size=(200, 2)):
        u, v = int(u), int(v)
        assert dense.distance(u, v) == lazy.distance(u, v)
        assert dense.next_hop(u, v) == lazy.next_hop(u, v)
    for u in map(int, rng.integers(0, dense.n, size=20)):
        r = float(rng.uniform(0, dense.diameter))
        assert dense.ball(u, r) == lazy.ball(u, r)
        for j in range(0, dense.log_n + 1):
            assert dense.r_u(u, j) == lazy.r_u(u, j)

    # 2. The acceptance criterion at a CI-sized n: the landmark scheme
    #    builds and routes without approaching full materialization.
    n = 2048
    graph = preferential_attachment(n, m=2, seed=1)
    metric = GraphMetric(graph, strategy="lazy")
    scheme = LandmarkNameIndependentScheme(metric)
    # One size query per node: starting each at the largest covering
    # radius seen settles 13.2 x size per node here, the median start
    # 6.4 x.
    size = math.isqrt(n - 1) + 1
    settled = int(metric.substrate_stats()["nodes_settled"])
    assert settled <= 8 * size * n, (
        f"vicinity build settled {settled / (size * n):.1f} x size per node"
    )
    for u, v in sample_ordered_pairs(n, 50, seed=0):
        result = scheme.route(u, v)
        assert result.path[-1] == v
        assert result.cost >= result.optimal - 1e-9
    rows = int(metric.substrate_stats()["rows_materialized"])
    assert rows < n // 4, (
        f"lazy build materialized {rows} rows at n={n} (expected << n)"
    )
    # Vicinity tables come from one vectorized pass per size-bounded
    # search; hold sampled nodes to the per-pair definition.
    reference = GraphMetric(graph, strategy="lazy")
    for u in map(int, rng.choice(n, size=50, replace=False)):
        expected = sorted(
            (scheme.name_of(v), v, scheme.home_landmark(v), reference.next_hop(u, v))
            for v in reference.size_ball(u, size)
            if v != u
        )
        assert scheme.vicinity_entries(u) == expected, (
            f"vicinity of node {u} differs from per-pair queries"
        )

    # 3. Budgeted store: evictions happen, budget is respected, answers
    #    survive eviction bit-identically.
    graph = random_geometric(128, seed=11)
    reference = GraphMetric(graph, strategy="lazy")
    budgeted = GraphMetric(
        graph, strategy="lazy", row_budget_bytes=4 * 2**20 // 256
    )
    for u in range(budgeted.n):
        assert (
            reference.distances_from(u) == budgeted.distances_from(u)
        ).all()
    stats = budgeted.substrate_stats()
    assert stats["evictions"] > 0, "budget never evicted"
    assert stats["stored_bytes"] <= stats["budget_bytes"]
    print("bench_substrate --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(run(measure, check, output="BENCH_substrate.json"))
