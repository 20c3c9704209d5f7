"""E20 — serving throughput of the compiled batch engine.

The interpreted ``route()`` loop is the reproduction's semantic ground
truth, but it pays python-object overhead per hop; the batch engine
(:mod:`repro.engine`) lowers the built tables to flat arrays and
advances *all* live packets one hop per numpy sweep, with results
bit-identical to the interpreter (property-tested in
``tests/test_engine.py``).  This experiment measures what that buys:
routes/second versus batch size and graph size, compiled against
interpreted, on power-law (preferential-attachment) graphs over the
lazy substrate — the Internet-like regime of E19, served by the
landmark name-independent scheme through one in-process
``BatchRouter``.

CLI: ``python -m repro throughput [--sizes 256,2048] [--batch-sizes
64,512,4096]``.  The committed trajectory (through n = 10⁴) lives in
``BENCH_throughput.json``; regenerate it with
``python benchmarks/bench_throughput.py``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import BatchRouter
from repro.experiments.harness import ExperimentTable
from repro.graphs.generators import preferential_attachment
from repro.metric.graph_metric import GraphMetric
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme

#: Default ladders: small enough for tests and the generated report;
#: the CLI reaches the full regime with ``--sizes 256,2048,10000``.
DEFAULT_SIZES = (256, 1024)
DEFAULT_BATCH_SIZES = (64, 512, 4096)


def _build(n: int):
    """Landmark scheme + compiled tables on the E19 power-law fixture."""
    metric = GraphMetric(
        preferential_attachment(n, m=2, seed=1), strategy="lazy"
    )
    scheme = LandmarkNameIndependentScheme(metric)
    return metric, scheme, scheme.compile_tables()


def _pair_arrays(n: int, count: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, n, size=count, dtype=np.int64),
        rng.integers(0, n, size=count, dtype=np.int64),
    )


def interpreted_rate(scheme, sources, targets) -> float:
    """Routes/second of the per-packet interpreted hop loop."""
    start = time.perf_counter()
    for u, v in zip(sources, targets):
        scheme.route(int(u), int(v))
    elapsed = time.perf_counter() - start
    return len(sources) / elapsed if elapsed > 0 else float("inf")


def compiled_rate(router, sources, targets, batch_size: int) -> float:
    """Routes/second of the vectorized sweep loop at one batch size."""
    start = time.perf_counter()
    for lo in range(0, len(sources), batch_size):
        router.route_arrays(
            sources[lo : lo + batch_size], targets[lo : lo + batch_size]
        )
    elapsed = time.perf_counter() - start
    return len(sources) / elapsed if elapsed > 0 else float("inf")


def run(
    pair_count: int = 300,
    sizes: Optional[Sequence[int]] = None,
    batch_sizes: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """Compiled vs interpreted routes/second across batch and graph size.

    The interpreted baseline routes ``pair_count`` pairs one at a time;
    the engine serves the *same* pairs (repeated out to the largest
    batch size, so per-sweep fixed costs amortize the way a serving
    workload would).  Stretch and paths are identical by construction —
    only the clock differs.  Each run builds its own metric and scheme,
    never a shared :class:`~repro.pipeline.context.BuildContext`'s:
    metric rows another experiment left resident would speed the
    interpreted baseline up, and the measured ratio with it.
    """
    sizes = DEFAULT_SIZES if sizes is None else sizes
    batch_sizes = DEFAULT_BATCH_SIZES if batch_sizes is None else batch_sizes
    rows: List[List[object]] = []
    for n in sizes:
        n = int(n)
        metric, scheme, tables = _build(n)
        base_src, base_tgt = _pair_arrays(n, min(pair_count, 2000), seed=3)
        # Warm the lazy substrate so neither side pays first-touch
        # Dijkstra rows inside its timed region.
        for u, v in zip(base_src[:50], base_tgt[:50]):
            scheme.route(int(u), int(v))
        base_rate = interpreted_rate(scheme, base_src, base_tgt)
        router = BatchRouter(tables)
        for batch in batch_sizes:
            batch = int(batch)
            reps = max(1, (2 * batch) // len(base_src))
            src = np.tile(base_src, reps)
            tgt = np.tile(base_tgt, reps)
            rate = compiled_rate(router, src, tgt, batch)
            rows.append(
                [
                    n,
                    batch,
                    int(rate),
                    int(base_rate),
                    round(rate / base_rate, 1),
                ]
            )
    return ExperimentTable(
        title="E20: compiled batch engine throughput (landmark scheme)",
        columns=[
            "n",
            "batch",
            "compiled routes/s",
            "interpreted routes/s",
            "speedup",
        ],
        rows=rows,
        notes=[
            "preferential-attachment m=2 graphs on the lazy substrate;"
            " compiled output is bit-identical to route() (see"
            " tests/test_engine.py)",
            "results return in injection-index order regardless of"
            " completion order — the documented determinism contract",
        ],
    )
