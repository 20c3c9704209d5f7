"""Benchmark the compiled batch engine (E20 serving throughput).

Reproduces the numbers recorded in ``BENCH_throughput.json``: compiled
versus interpreted routes/second for the landmark name-independent
scheme on preferential-attachment graphs over the lazy substrate —
a batch-size sweep at each size, through the acceptance fixture
``GraphMetric(preferential_attachment(2048, m=2, seed=1),
strategy="lazy")``, where the engine must clear **10×** the
interpreted hop loop.

Run with ``PYTHONPATH=src python benchmarks/bench_throughput.py``
(writes ``BENCH_throughput.json``).  Pass ``--check`` for the CI
variant: on a smoke fixture (n = 256) the compiled engine must be
bit-identical to the interpreter on a pair sample (path, cost, legs,
header bits — exact equality, no tolerance), and the compiled loop
must be at least as fast as the interpreted one.  On the n = 2048
acceptance fixture, where landmark trees are deeper and hubs have
full vicinities, the engine must equal the interpreter on 200 pairs,
and so on the same graph with uniform random weights in [1, 4]
(unit weights cannot show a hop charged the wrong edge's weight).
Past the dense-table limit, Theorem 1.4 on
``GraphMetric(random_geometric(4096, seed=1), strategy="lazy")`` must
build, compile from its own per-node tables and route bit-identically
on 200 pairs.  No wall-clock numbers are committed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from _runner import run
from repro.engine import BatchRouter
from repro.experiments.throughput import (
    _build,
    _pair_arrays,
    compiled_rate,
    interpreted_rate,
)
from repro.engine.compiler import DENSE_LIMIT
from repro.graphs.generators import (
    preferential_attachment,
    random_geometric,
    uniform_random_weights,
)
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme

SIZES = (256, 2048, 10_000)
BATCH_SIZES = (256, 2048, 8192)
#: Acceptance floor on the n=2048 fixture (ISSUE 9).
REQUIRED_SPEEDUP = 10.0


def measure_point(n: int) -> dict:
    metric, scheme, tables = _build(n)
    compile_start = time.perf_counter()
    scheme.compile_tables()
    compile_seconds = time.perf_counter() - compile_start
    src, tgt = _pair_arrays(n, 2000, seed=3)
    # Warm the lazy substrate outside both timed regions.
    for u, v in zip(src[:50], tgt[:50]):
        scheme.route(int(u), int(v))
    interpreted = interpreted_rate(scheme, src[:1000], tgt[:1000])
    router = BatchRouter(tables)
    batches = {}
    for batch in BATCH_SIZES:
        reps = max(1, (4 * batch) // len(src))
        batches[str(batch)] = int(
            compiled_rate(router, np.tile(src, reps), np.tile(tgt, reps), batch)
        )
    best = max(batches.values())
    return {
        "n": n,
        "compile_seconds": round(compile_seconds, 3),
        "compiled_bytes": int(tables.nbytes()),
        "interpreted_routes_per_sec": int(interpreted),
        "compiled_routes_per_sec_by_batch": batches,
        "best_speedup": round(best / interpreted, 1),
    }


def measure() -> dict:
    points = [measure_point(n) for n in SIZES]
    acceptance = next(p for p in points if p["n"] == 2048)
    assert acceptance["best_speedup"] >= REQUIRED_SPEEDUP, (
        f"n=2048 speedup {acceptance['best_speedup']} < "
        f"{REQUIRED_SPEEDUP} (acceptance criterion)"
    )
    return {
        "graph_family": "preferential_attachment(m=2, seed=1)",
        "scheme": "LandmarkNameIndependentScheme",
        "substrate": "lazy",
        "pair_sample": 2000,
        "required_speedup_n2048": REQUIRED_SPEEDUP,
        "trajectory": points,
        "note": (
            "compiled output is bit-identical to route() by the "
            "property tests in tests/test_engine.py; every rate is one "
            "in-process BatchRouter (compiled) or scheme.route() loop "
            "(interpreted)"
        ),
    }


def _assert_bit_identical(scheme, tables, metric, pairs) -> None:
    router = BatchRouter(tables, metric=metric)
    compiled = router.route_batch(
        [u for u, _ in pairs], [v for _, v in pairs]
    )
    for (u, v), got in zip(pairs, compiled):
        want = scheme.route(u, v)
        assert got.path == want.path, (u, v)
        assert got.cost == want.cost, (u, v)
        assert got.legs == want.legs, (u, v)
        assert got.header_bits == want.header_bits, (u, v)


def check_acceptance_fixture() -> None:
    """The landmark engine at n = 2048, bit for bit on 200 pairs, on the
    unit-weight acceptance graph and on a weighted copy of it."""
    n = 2048
    metric, scheme, tables = _build(n)
    pairs = sample_ordered_pairs(n, 200, seed=0)
    _assert_bit_identical(scheme, tables, metric, pairs)
    weighted = GraphMetric(
        uniform_random_weights(preferential_attachment(n, m=2, seed=1), seed=1),
        strategy="lazy",
    )
    scheme = LandmarkNameIndependentScheme(weighted)
    _assert_bit_identical(scheme, scheme.compile_tables(), weighted, pairs)
    print(
        f"bench_throughput --check: landmark engine == interpreter at n={n}, "
        "unit and random weights"
    )


def check_past_dense_limit() -> None:
    """Theorem 1.4 served at n = 4096 from its own per-node tables."""
    n = 4096
    metric = GraphMetric(random_geometric(n, seed=1), strategy="lazy")
    scheme = SimpleNameIndependentScheme(metric)
    tables = scheme.compile_tables()
    assert n > DENSE_LIMIT and not {"NH", "D"} & set(tables.arrays)
    _assert_bit_identical(scheme, tables, metric, sample_ordered_pairs(n, 200, seed=0))
    print(
        f"bench_throughput --check: Theorem 1.4 at n={n} compiled to "
        f"{tables.nbytes() / 2**20:.1f} MB and routes bit-identically"
    )


def check() -> None:
    """CI invariants: bit-identity, and compiled at least as fast."""
    n = 256
    metric, scheme, tables = _build(n)
    router = BatchRouter(tables, metric=metric)
    pairs = sample_ordered_pairs(n, 300, seed=0)
    _assert_bit_identical(scheme, tables, metric, pairs)

    src = np.asarray([u for u, _ in pairs], dtype=np.int64)
    tgt = np.asarray([v for _, v in pairs], dtype=np.int64)
    interpreted = interpreted_rate(scheme, src, tgt)
    rate = compiled_rate(router, np.tile(src, 8), np.tile(tgt, 8), 1024)
    assert rate >= interpreted, (
        f"compiled {int(rate)}/s slower than interpreted "
        f"{int(interpreted)}/s on the smoke fixture"
    )
    print(
        "bench_throughput --check: bit-identity holds; compiled "
        f"{int(rate)}/s >= interpreted {int(interpreted)}/s"
    )
    check_acceptance_fixture()
    check_past_dense_limit()


if __name__ == "__main__":
    sys.exit(run(measure, check, output="BENCH_throughput.json"))
