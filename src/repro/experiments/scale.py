"""E19 — the Internet-scale regime on the lazy substrate.

The paper's schemes are compact *because* the metric is doubling; their
``(1/ε)^O(α)``-size structures assume every ball can be covered by a
constant number of half-radius balls.  Two questions the dense APSP
substrate could never ask:

1. **How far does compact routing scale** when the metric is queried
   lazily?  The :class:`LandmarkNameIndependentScheme` builds from
   ``k ≈ √n`` full Dijkstra rows plus one size-bounded search per node,
   so its build cost — time, rows materialized, row-store memory — should
   grow near-linearly while an eager APSP pays ``Θ(n²)`` memory before
   the first query.
2. **What breaks on non-doubling graphs?**  Power-law graphs
   (preferential attachment, Internet-AS-like) have hubs whose balls
   grow linearly — the doubling constant is unbounded — so Theorem
   1.4's per-node tables degrade toward ``Θ(n)``; the Krioukov–Fall–
   Yang observation is that landmark routing stays compact there at the
   price of the worst-case stretch guarantee.

``run`` measures (1): build seconds, full rows materialized (the
substrate's acceptance counter), the row store's bytes after the build,
average stretch, and mean table bits per node, for each family and
size.  ``run_doubling`` measures (2): Theorem 1.4 versus the landmark
scheme on a doubling and a power-law family at equal (small) sizes,
where the doubling scheme is still buildable.

CLI: ``python -m repro scale [--sizes 256,2048,10000] [--pairs N]``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import networkx as nx

from repro.experiments.harness import ExperimentTable
from repro.graphs.generators import (
    clustered_backbone,
    internet_as_like,
    preferential_attachment,
    random_geometric,
)
from repro.pipeline.context import BuildContext
from repro.pipeline.sampling import sample_ordered_pairs
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme

#: Default size ladder: small enough for the generated report, and the
#: CLI reaches the full regime with ``--sizes 256,2048,10000``.
DEFAULT_SIZES = (256, 1024, 2048)


def _families(n: int) -> List[Tuple[str, "nx.Graph"]]:
    side = max(2, round(n**0.5))
    return [
        ("pref-attach m=2", preferential_attachment(n, m=2, seed=1)),
        ("internet-AS-like", internet_as_like(n, m=2, seed=1)),
        ("geometric", random_geometric(n, seed=11)),
        ("clustered-backbone", clustered_backbone(side, side, max_weight=2.0**20)),
    ]


def _mean_stretch(scheme, metric, pair_count: int, seed: int = 0) -> float:
    pairs = sample_ordered_pairs(metric.n, pair_count, seed=seed)
    total = 0.0
    for u, v in pairs:
        total += scheme.route(u, v).stretch
    return total / len(pairs) if pairs else 1.0


def run(
    pair_count: int = 300,
    context: Optional[BuildContext] = None,
    sizes: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """Build + route cost of the landmark scheme as ``n`` grows.

    Every metric is forced onto the lazy strategy (even below the
    auto-selection threshold) so the rows-materialized column is the
    same counter at every size.  Each point is built once: memory is
    the row store's bytes (``substrate_stats()["stored_bytes"]``) right
    after the build.
    """
    if context is None:
        context = BuildContext()
    if sizes is None:
        sizes = DEFAULT_SIZES
    rows: List[List[object]] = []
    for n in sizes:
        for family, graph in _families(int(n)):
            start = time.perf_counter()
            metric = context.metric(graph, strategy="lazy")
            scheme = LandmarkNameIndependentScheme(metric)
            build_seconds = time.perf_counter() - start
            stats = metric.substrate_stats()
            stretch = _mean_stretch(
                scheme, metric, min(pair_count, 200)
            )
            rows.append(
                [
                    family,
                    metric.n,
                    round(build_seconds, 3),
                    int(stats["rows_materialized"]),
                    round(int(stats["stored_bytes"]) / 2**20, 3),
                    round(stretch, 3),
                    int(scheme.total_table_bits() / metric.n),
                ]
            )
    return ExperimentTable(
        title="E19: lazy-substrate scaling (landmark name-independent)",
        columns=[
            "family",
            "n",
            "build s",
            "rows materialized",
            "row store MiB",
            "avg stretch",
            "avg table bits",
        ],
        rows=rows,
        notes=[
            "rows materialized counts full Dijkstra rows ever solved; "
            "an eager APSP would pay n rows before the first query",
            "row store MiB is the lazy metric's stored row bytes "
            "(substrate_stats stored_bytes) right after the one timed "
            "build, before routing; it is bounded by the row budget",
            "the exponential-weight backbone is the landmark scheme's "
            "worst case (directory detours cross the backbone while "
            "d(u,v) is intra-cluster) — the regime the paper's doubling "
            "schemes cover with a guarantee",
        ],
    )


def run_doubling(
    epsilon: float = 0.5,
    pair_count: int = 300,
    context: Optional[BuildContext] = None,
    sizes: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """Theorem 1.4 vs the landmark scheme off the doubling assumption.

    Runs both schemes on a doubling family (geometric) and a
    non-doubling one (preferential attachment) at sizes where Theorem
    1.4 is still buildable, and reports mean/max table bits: on the
    power-law family the hub balls inflate the doubling scheme's rings
    and search trees toward ``Θ(n)`` per node, while the landmark
    scheme's ``√n`` tables are family-agnostic — the trade being its
    lack of a worst-case stretch guarantee.
    """
    if context is None:
        context = BuildContext()
    if sizes is None:
        sizes = (128, 256)
    rows: List[List[object]] = []
    for n in sizes:
        for family, graph in (
            ("geometric", random_geometric(int(n), seed=11)),
            ("pref-attach m=2", preferential_attachment(int(n), m=2, seed=1)),
        ):
            metric = context.metric(graph)
            for label, scheme in (
                (
                    "Thm 1.4 (doubling)",
                    context.scheme(SimpleNameIndependentScheme, metric),
                ),
                (
                    "landmark (KFY)",
                    context.scheme(LandmarkNameIndependentScheme, metric),
                ),
            ):
                bits = scheme.table_bits_vector()
                rows.append(
                    [
                        family,
                        metric.n,
                        label,
                        int(sum(bits) / len(bits)),
                        int(max(bits)),
                        round(
                            _mean_stretch(
                                scheme, metric, min(pair_count, 150)
                            ),
                            3,
                        ),
                    ]
                )
    return ExperimentTable(
        title="E19b: doubling-scheme degradation on power-law graphs",
        columns=[
            "family",
            "n",
            "scheme",
            "avg table bits",
            "max table bits",
            "avg stretch",
        ],
        rows=rows,
        notes=[
            "the doubling scheme keeps its 9+O(eps) guarantee everywhere "
            "but its tables inflate on the non-doubling family; the "
            "landmark scheme has no worst-case guarantee anywhere",
        ],
    )


def run_landmark_sweep(
    pair_count: int = 300,
    context: Optional[BuildContext] = None,
    vicinity_scale: Optional[Sequence[float]] = None,
    landmarks: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """Landmark/vicinity sizing sweep on the power-law fixture.

    The ``√n`` default sizing (Krioukov–Fall–Yang) lands at mean
    stretch ≈ 2.1–2.6 on preferential-attachment graphs; the KFY
    observation is that Internet-like graphs admit *near-1* mean
    stretch once vicinities grow past the hub scale.  This sweep
    varies ``vicinity_size`` (as multiples of ``√n``) against
    ``landmark_count`` and reports mean/max stretch plus the storage
    each point pays, so the stretch-vs-table-bits frontier is measured
    rather than asserted.

    CLI: ``python -m repro scale --vicinity-scale 1,4,16
    --landmarks 8,16,32``.
    """
    if context is None:
        context = BuildContext()
    n = 256
    root = max(1, round(n**0.5))
    scales = (1.0, 4.0, 16.0) if vicinity_scale is None else vicinity_scale
    counts = (root // 2, root, 2 * root) if landmarks is None else landmarks
    metric = context.metric(
        preferential_attachment(n, m=2, seed=1), strategy="lazy"
    )
    rows: List[List[object]] = []
    for landmark_count in counts:
        for scale in scales:
            vicinity = max(1, min(n, round(root * float(scale))))
            scheme = context.scheme(
                LandmarkNameIndependentScheme,
                metric,
                landmark_count=int(landmark_count),
                vicinity_size=vicinity,
            )
            pairs = sample_ordered_pairs(n, min(pair_count, 200), seed=0)
            stretches = [scheme.route(u, v).stretch for u, v in pairs]
            bits = scheme.table_bits_vector()
            rows.append(
                [
                    int(landmark_count),
                    vicinity,
                    round(sum(stretches) / len(stretches), 3),
                    round(max(stretches), 3),
                    int(sum(bits) / len(bits)),
                    int(max(bits)),
                ]
            )
    return ExperimentTable(
        title=f"E19c: landmark/vicinity sizing sweep (pref-attach n={n})",
        columns=[
            "landmarks",
            "vicinity",
            "mean stretch",
            "max stretch",
            "avg table bits",
            "max table bits",
        ],
        rows=rows,
        notes=[
            "vicinity is set in multiples of sqrt(n); stretch falls "
            "toward 1 as vicinities cover the hub scale while table "
            "bits grow linearly in the vicinity size",
            "the sweep's sqrt(n) diagonal row is recorded in "
            "BENCH_substrate.json (landmark_sweep)",
        ],
    )
