"""E17 — churn: maintenance under continuous edits and load.

Each cell drives one scheme through the *same* deterministic edit
stream on the same starting topology (grid 8x8) while packets keep
flowing: edits commit in batches, the round's demands are routed with
**stale** tables under a fallback policy, then the tables are repaired
through the warm :class:`BuildContext`: every edit drops the cached
metric and everything built on it, so each round builds the metric,
the net hierarchy, the packings and the scheme cold, once.  Reported
per cell: delivery rate and stretch inside the staleness windows, and
the built/reused artifact totals of the repairs.  Repair throughput
(edits per second of apply + rebuild time) is wall clock, so the table
leaves it out and every cell's rows are deterministic;
``BENCH_churn.json`` records it.  Every ``VERIFY_EVERY``-th round the
warm scheme is asserted bit-identical to a cold rebuild of the current
graph; a divergence raises
:class:`~repro.churn.driver.ChurnVerificationError` and fails the
experiment.

Cells are independent (each owns a private warm context — that *is*
the system under test) and fan out over ``--jobs`` processes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import networkx as nx

from repro.churn.driver import ChurnDriver
from repro.core.params import SchemeParameters
from repro.experiments.harness import ExperimentTable, standard_suite
from repro.pipeline.parallel import parallel_map
from repro.resilience.router import POLICIES
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme

#: Same trio as E11/E16: the honest baseline and both paper theorems.
SCHEME_LINEUP = (
    (ShortestPathScheme, "baseline"),
    (SimpleNameIndependentScheme, "Theorem 1.4"),
    (ScaleFreeNameIndependentScheme, "Theorem 1.1"),
)

#: Master seed: every cell replays the identical edit stream, so the
#: scheme/policy comparison is paired, not sampled.
CHURN_SEED = 23

#: Cold-rebuild bit-identity check cadence, in rounds.
VERIFY_EVERY = 5


def _churn_cell(payload) -> List[object]:
    """Process-pool worker: one (scheme, policy) churn run."""
    (
        graph_name,
        graph,
        scheme_cls,
        label,
        policy,
        epsilon,
        edits,
        edits_per_round,
        pairs_per_round,
        verify_every,
    ) = payload
    driver = ChurnDriver(
        graph,
        scheme_cls,
        policy=policy,
        params=SchemeParameters(epsilon=epsilon),
        seed=CHURN_SEED,
        edits_per_round=edits_per_round,
        pairs_per_round=pairs_per_round,
        verify_every=verify_every,
    )
    report = driver.run(edits=edits)
    verified = sum(1 for r in report.rounds if r.verified)
    return [
        graph_name,
        label,
        policy,
        report.total_edits,
        len(report.rounds),
        f"{report.initial_nodes}->{report.final_nodes}",
        round(report.mean_delivery_rate(), 4),
        round(report.mean_stretch(), 4),
        round(report.max_stretch(), 4),
        report.total_built,
        report.total_reused,
        verified,
    ]


def run(
    epsilon: float = 0.5,
    pair_count: int = 300,
    edits: int = 150,
    suite: Optional[List[Tuple[str, nx.Graph]]] = None,
    jobs: int = 1,
) -> ExperimentTable:
    """Scheme x policy churn matrix on the grid fixture.

    ``pair_count`` is spread over the staleness windows (~15 rounds at
    the default batch width), so the CLI's ``--pairs`` keeps its usual
    meaning of total routed demands.  No shared context parameter: each
    cell must own its warm context, because its cached state *is* the
    subject of the experiment.
    """
    if suite is None:
        suite = [standard_suite("small")[0]]  # grid 8x8
    edits_per_round = 10
    pairs_per_round = max(4, pair_count // 15)
    cells = []
    for graph_name, graph in suite:
        for scheme_cls, label in SCHEME_LINEUP:
            for policy in POLICIES:
                cells.append(
                    (
                        graph_name,
                        graph.copy(),
                        scheme_cls,
                        label,
                        policy,
                        epsilon,
                        edits,
                        edits_per_round,
                        pairs_per_round,
                        VERIFY_EVERY,
                    )
                )
    rows = parallel_map(_churn_cell, cells, jobs=jobs)
    return ExperimentTable(
        title=(
            f"Churn (E17): {edits} edits in batches of {edits_per_round}, "
            f"continuous load, eps={epsilon}, seed {CHURN_SEED}"
        ),
        columns=[
            "graph",
            "scheme",
            "policy",
            "edits",
            "rounds",
            "nodes",
            "delivery",
            "mean stretch*",
            "max stretch*",
            "built",
            "reused",
            "verified",
        ],
        rows=rows,
        notes=[
            "* stretch of packets delivered during the staleness windows, "
            "vs the POST-edit shortest paths (the honest optimum on the "
            "current topology)",
            "built/reused artifact counts are deterministic; repair "
            "throughput (edits per second of apply_edit + rebuild time) "
            "is wall clock and is recorded in BENCH_churn.json",
            f"verified = rounds whose warm tables were asserted "
            f"bit-identical (routes + table_bits_vector) to a cold "
            f"rebuild of the current graph (every {VERIFY_EVERY} rounds)",
            "every cell replays the identical seeded edit stream, so "
            "scheme/policy columns are a paired comparison",
            "every edit drops the cached metric and everything built "
            "on it, so each round's repair builds the metric, hierarchy, "
            "packings and scheme cold, once",
        ],
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
