"""E17 — churn: maintenance under continuous edits and load.

Each scheme is driven through the *same* deterministic edit stream on
the same starting topology (grid 8x8) while packets keep flowing: edits
commit in batches, the round's demands are routed with **stale** tables
under each fallback policy, then the tables are repaired through the
warm :class:`BuildContext`: every edit drops the cached metric and
everything built on it, so each round builds the metric, the net
hierarchy, the packings and the scheme cold, once.  One driver run per
scheme serves all three policies, so a scheme's three rows share its
edits, repairs and verifications.  Reported per (scheme, policy):
delivery rate and stretch inside the staleness windows.  Repair
throughput (edits per second of apply + rebuild time) is wall clock, so
the table leaves it out and every row is deterministic;
``BENCH_churn.json`` records it.  Every ``VERIFY_EVERY``-th round the
warm scheme is asserted bit-identical to a cold rebuild of the current
graph; a divergence raises
:class:`~repro.churn.driver.ChurnVerificationError` and fails the
experiment.

Schemes are independent (each run owns a private warm context — that
*is* the system under test) and fan out over ``--jobs`` processes.
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

#: Master seed: every scheme replays the identical edit stream, so the
#: scheme/policy comparison is paired, not sampled.
CHURN_SEED = 23

#: Cold-rebuild bit-identity check cadence, in rounds.
VERIFY_EVERY = 5


def _churn_cell(payload) -> List[List[object]]:
    """Process-pool worker: one scheme's churn run, one row per policy."""
    (
        graph_name,
        graph,
        scheme_cls,
        label,
        epsilon,
        edits,
        edits_per_round,
        pairs_per_round,
        verify_every,
    ) = payload
    driver = ChurnDriver(
        graph,
        scheme_cls,
        policy=POLICIES,
        params=SchemeParameters(epsilon=epsilon),
        seed=CHURN_SEED,
        edits_per_round=edits_per_round,
        pairs_per_round=pairs_per_round,
        verify_every=verify_every,
    )
    return [
        [
            graph_name,
            label,
            report.policy,
            report.total_edits,
            len(report.rounds),
            f"{report.initial_nodes}->{report.final_nodes}",
            round(report.mean_delivery_rate(), 4),
            round(report.mean_stretch(), 4),
            round(report.max_stretch(), 4),
            sum(1 for r in report.rounds if r.verified),
        ]
        for report in driver.run(edits=edits)
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
    scheme's run must own its warm context, because its cached state
    *is* the subject of the experiment.
    """
    if suite is None:
        suite = [standard_suite("small")[0]]  # grid 8x8
    edits_per_round = 10
    pairs_per_round = max(4, pair_count // 15)
    cells = [
        (
            graph_name,
            graph.copy(),
            scheme_cls,
            label,
            epsilon,
            edits,
            edits_per_round,
            pairs_per_round,
            VERIFY_EVERY,
        )
        for graph_name, graph in suite
        for scheme_cls, label in SCHEME_LINEUP
    ]
    rows = [
        row for cell in parallel_map(_churn_cell, cells, jobs=jobs) for row in cell
    ]
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
            "verified",
        ],
        rows=rows,
        notes=[
            "* stretch of packets delivered during the staleness windows, "
            "vs the POST-edit shortest paths (the honest optimum on the "
            "current topology)",
            f"verified = rounds whose warm tables were asserted "
            f"bit-identical (routes + table_bits_vector) to a cold "
            f"rebuild of the current graph (every {VERIFY_EVERY} rounds)",
            "every scheme replays the identical seeded edit stream, so "
            "scheme/policy columns are a paired comparison; a scheme's "
            "three policy rows share one run (the same edits, repairs "
            "and verifications; only the staleness-window routing "
            "differs)",
            "every edit drops the cached metric and everything built "
            "on it, so each round's repair builds the metric, hierarchy, "
            "packings and scheme cold, once",
        ],
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
