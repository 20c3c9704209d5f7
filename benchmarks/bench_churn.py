"""Benchmark the churn subsystem (E17).

Reproduces the numbers recorded in ``BENCH_churn.json``: one scheme
(Theorem 1.1) driven through a 500-edit deterministic churn stream on
the grid 8x8 fixture under continuous packet load, in one run that
routes every staleness window under each fallback policy, so the
policies are a paired comparison.  Recorded:

* ``repair`` — repair throughput (edits per second of apply + rebuild
  time), overall and per round, once: every policy shares the run's
  edits and repairs;
* per policy, mean delivery rate and stretch inside the staleness
  windows and the **staleness-stretch curve** — one point per round:
  delivery rate and mean stretch of the packets routed against stale
  tables (pair it with that round's repair throughput).

Every 5th round the warm tables are asserted bit-identical (routes,
costs, ``table_bits_vector``) to a cold rebuild of the current graph;
any divergence raises and fails the benchmark.

Run with ``PYTHONPATH=src python benchmarks/bench_churn.py`` (writes
``BENCH_churn.json``; a regeneration differs from the committed file
only in its ``repair_throughput_eps`` fields, which are wall clock).
Pass ``--check`` for the CI variant: one shorter stream with a tighter
verification cadence.  ``--check`` asserts deterministic invariants,
not wall-clock numbers.
"""

from __future__ import annotations

import os
import platform
import sys

from _runner import run

from repro.churn.driver import ChurnDriver
from repro.core.params import SchemeParameters
from repro.experiments.harness import standard_suite
from repro.resilience.router import POLICIES
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme

SEED = 23
VERIFY_EVERY = 5
DESCRIPTION = (
    "Churn subsystem (E17): one scheme (Theorem 1.1, "
    "ScaleFreeNameIndependentScheme) driven through a 500-edit "
    "deterministic churn stream (DEFAULT_MIX: 60% weight, 24% link "
    "churn, 16% node churn) on grid 8x8 under continuous packet load, "
    "in one run that routes each staleness window under every fallback "
    "policy (seed 23), so policies are a paired comparison. 'repair': "
    "repair throughput (edits per second of apply_edit + rebuild wall "
    "clock), overall and per round, shared by every policy. Per "
    "policy: delivery rate and stretch inside the staleness windows, "
    "overall and per round. Every 5th round the warm tables were "
    "asserted bit-identical (every routed result, table_bits_vector) "
    "to a cold rebuild of the current graph — 10 verified rounds, zero "
    "divergences. Timing numbers vary run to run; edit streams, "
    "delivery and stretch are deterministic. Reproduce with: "
    "PYTHONPATH=src python benchmarks/bench_churn.py. Regenerated when "
    "one run started serving all three policies (it was one run per "
    "policy, each replaying the same edits, repairs and verifications): "
    "repair throughput is recorded once, the per-policy total_built "
    "(250) and total_reused (0), which counted rounds, are gone, and "
    "every delivery, stretch and verified value is unchanged."
)


def run_policies(edits: int, verify_every: int = VERIFY_EVERY):
    """One churn run: Theorem 1.1 on grid 8x8, one report per policy."""
    _, graph = standard_suite("small")[0]
    driver = ChurnDriver(
        graph.copy(),
        ScaleFreeNameIndependentScheme,
        policy=POLICIES,
        params=SchemeParameters(epsilon=0.5),
        seed=SEED,
        edits_per_round=10,
        pairs_per_round=20,
        verify_every=verify_every,
    )
    return driver.run(edits=edits)


def measure(edits: int = 500):
    reports = run_policies(edits)
    shared = reports[0]
    return {
        "description": DESCRIPTION,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "scheme": "Theorem 1.1 (ScaleFreeNameIndependentScheme)",
        "graph": "grid 8x8",
        "edits": edits,
        "seed": SEED,
        "verify_every_rounds": VERIFY_EVERY,
        "repair": {
            "total_edits": shared.total_edits,
            "initial_nodes": shared.initial_nodes,
            "final_nodes": shared.final_nodes,
            "repair_throughput_eps": round(shared.repair_throughput, 3),
            "rounds": [
                {
                    "round": r.index,
                    "edits": r.edit_count,
                    "repair_throughput_eps": round(r.repair_throughput, 3),
                }
                for r in shared.rounds
            ],
        },
        "policies": {
            report.policy: {
                "mean_delivery_rate": round(report.mean_delivery_rate(), 4),
                "mean_stretch": round(report.mean_stretch(), 4),
                "max_stretch": round(report.max_stretch(), 4),
                "rounds": [
                    {
                        "round": r.index,
                        "delivery_rate": round(r.delivery_rate, 4),
                        "mean_stretch": round(r.mean_stretch, 4),
                        "max_stretch": round(r.max_stretch, 4),
                        "verified": r.verified,
                    }
                    for r in report.rounds
                ],
            }
            for report in reports
        },
    }


def check() -> None:
    """CI invariants (deterministic, no wall-clock assertions)."""
    # One short stream: runs end to end under every policy, and every
    # scheduled cold-rebuild bit-identity check passes (a divergence
    # raises ChurnVerificationError before we get here).
    for report in run_policies(edits=60, verify_every=2):
        verified = sum(1 for r in report.rounds if r.verified)
        assert verified >= 2, (
            f"{report.policy}: expected >= 2 verified rounds, got {verified}"
        )
        assert report.total_edits == 60
        assert report.repair_throughput > 0
    print("bench_churn --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(run(measure, check, output="BENCH_churn.json"))
