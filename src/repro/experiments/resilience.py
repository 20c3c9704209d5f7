"""E16 — resilience: delivery and stretch under injected failures.

Tables are built once, on the intact topology; then a deterministic
fraction of links fails and every scheme keeps forwarding with *stale*
tables under each fallback policy (fail-fast, local-detour,
level-escalation).  Reported per cell: delivery rate, stretch of
delivered packets against the **post-failure** shortest paths, detour
counts, and the typed outcome breakdown (no packet may hang — every
undelivered packet terminates as dropped / TTL-expired / loop-detected).

Cells are independent and fan out over ``--jobs`` processes; results
are bit-identical to the serial run (ordered, seeded, no shared state).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from repro.core.params import SchemeParameters
from repro.experiments.harness import ExperimentTable, standard_suite
from repro.pipeline.context import BuildContext
from repro.pipeline.parallel import parallel_map
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.failure_plan import FailurePlan
from repro.resilience.router import POLICIES, ResilientRouter
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme

#: The scheme line-up every resilience cell runs (same trio as E11).
SCHEME_LINEUP = (
    (ShortestPathScheme, "baseline"),
    (SimpleNameIndependentScheme, "Theorem 1.4"),
    (ScaleFreeNameIndependentScheme, "Theorem 1.1"),
)

#: Seed for the failure sampler (one draw per graph, shared by cells).
FAILURE_SEED = 17


def _route_cell(payload) -> List[object]:
    """Process-pool worker: one (graph, scheme, policy) resilience cell.

    The payload carries the *built* scheme (tables are pre-failure
    state); the degraded overlay and router are reconstructed in the
    worker, deterministically, from the seeded failure plan.
    """
    graph_name, scheme, label, policy, fraction, seed, pairs = payload
    metric = scheme.metric
    plan = FailurePlan.uniform_links(metric, fraction, seed=seed)
    degraded = DegradedNetwork.from_plan(metric, plan)
    router = ResilientRouter(scheme, degraded, policy=policy)
    report = router.evaluate(pairs)
    counts = report.outcome_counts()
    return [
        graph_name,
        label,
        policy,
        f"{report.delivered}/{report.total}",
        round(report.delivery_rate, 4),
        round(report.mean_stretch(), 4),
        round(report.max_stretch(), 4),
        round(report.mean_detours(), 4),
        counts["dropped"],
        counts["ttl-expired"],
        counts["loop-detected"],
        report.unreachable,
    ]


def run(
    epsilon: float = 0.5,
    pair_count: int = 300,
    fail_fraction: float = 0.10,
    suite: Optional[List[Tuple[str, nx.Graph]]] = None,
    context: Optional[BuildContext] = None,
    jobs: int = 1,
) -> ExperimentTable:
    """Delivery/stretch of every scheme × fallback policy under failures."""
    params = SchemeParameters(epsilon=epsilon)
    if suite is None:
        suite = standard_suite("small")
    if context is None:
        context = BuildContext()
    cells = []
    for graph_name, graph in suite:
        metric = context.metric(graph)
        pairs = context.pairs(metric, pair_count)
        for scheme_cls, label in SCHEME_LINEUP:
            scheme = context.scheme(scheme_cls, metric, params)
            for policy in POLICIES:
                cells.append(
                    (
                        graph_name,
                        scheme,
                        label,
                        policy,
                        fail_fraction,
                        FAILURE_SEED,
                        pairs,
                    )
                )
    rows = parallel_map(_route_cell, cells, jobs=jobs)
    return ExperimentTable(
        title=(
            f"Resilience (E16): {fail_fraction:.0%} links failed, "
            f"stale tables, eps={epsilon}, {pair_count} pairs"
        ),
        columns=[
            "graph",
            "scheme",
            "policy",
            "delivered",
            "rate",
            "mean stretch*",
            "max stretch*",
            "mean detours",
            "dropped",
            "ttl",
            "loops",
            "unreachable",
        ],
        rows=rows,
        notes=[
            "* stretch of delivered packets vs the POST-failure shortest "
            "path (the honest optimum on the surviving topology)",
            "unreachable = pairs disconnected by the failures (no "
            "policy could deliver those)",
            f"failure plan: uniform links, seed {FAILURE_SEED}, one "
            "draw per graph shared by every scheme x policy cell",
        ],
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
