"""Benchmark the churn subsystem (E17).

Reproduces the numbers recorded in ``BENCH_churn.json``: one scheme
(Theorem 1.1) driven through a 500-edit deterministic churn stream on
the grid 8x8 fixture under continuous packet load, once per fallback
policy.  Every cell replays the identical edit stream, so the policies
are a paired comparison.  Recorded per policy:

* the aggregate — repair throughput (edits per second of apply +
  rebuild time), mean delivery rate and stretch inside the staleness
  windows, total artifacts built vs reused;
* the **staleness-stretch vs repair-throughput curve** — one point per
  round: delivery rate and mean stretch of the packets routed against
  stale tables, alongside that round's repair throughput.

Every 5th round the warm tables are asserted bit-identical (routes,
costs, ``table_bits_vector``) to a cold rebuild of the current graph;
any divergence raises and fails the benchmark.

Run with ``PYTHONPATH=src python benchmarks/bench_churn.py`` (writes
``BENCH_churn.json``; a regeneration differs from the committed file
only in its ``repair_throughput_eps`` fields, which are wall clock).
Pass ``--check`` for the CI variant: a shorter stream per policy with
a tighter verification cadence.  ``--check`` asserts deterministic
invariants, not wall-clock numbers.
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
    "once per fallback policy; every cell replays the identical edit "
    "stream (seed 23), so policies are a paired comparison. Per "
    "policy: aggregate repair throughput (edits per second of "
    "apply_edit + rebuild wall clock), delivery rate and stretch "
    "inside the staleness windows, and the per-round staleness-stretch "
    "vs repair-throughput curve. Every 5th round the warm tables were "
    "asserted bit-identical (every routed result, table_bits_vector) "
    "to a cold rebuild of the current graph — 10 verified rounds per "
    "policy, zero divergences. Timing numbers vary run to run; edit "
    "streams, built/reused artifact counts, delivery and stretch are "
    "deterministic. Reproduce with: PYTHONPATH=src python "
    "benchmarks/bench_churn.py. Regenerated when edits stopped "
    "splicing metric rows: every edit drops the cached metric with "
    "everything built on it, so each round's repair builds the "
    "metric, hierarchy, packings and scheme cold, once (total_built "
    "200 -> 250 per policy: one metric per round; total_reused 50 -> "
    "0: no spliced metric to reuse); the per-round dirty_rows and "
    "full_rebuilds fields and the single-edit fine_grained series are "
    "gone, and edit streams, delivery, stretch and verified rounds are "
    "unchanged."
)


def run_policy(policy: str, edits: int, verify_every: int = VERIFY_EVERY):
    """One churn run: Theorem 1.1 on grid 8x8, under ``policy``."""
    _, graph = standard_suite("small")[0]
    driver = ChurnDriver(
        graph.copy(),
        ScaleFreeNameIndependentScheme,
        policy=policy,
        params=SchemeParameters(epsilon=0.5),
        seed=SEED,
        edits_per_round=10,
        pairs_per_round=20,
        verify_every=verify_every,
    )
    return driver.run(edits=edits)


def measure(edits: int = 500):
    policies = {}
    for policy in POLICIES:
        report = run_policy(policy, edits)
        summary = report.to_dict()
        # The full per-round records are bulky; keep the curve points.
        summary["rounds"] = [
            {
                "round": r.index,
                "edits": r.edit_count,
                "repair_throughput_eps": round(r.repair_throughput, 3),
                "delivery_rate": round(r.delivery_rate, 4),
                "mean_stretch": round(r.mean_stretch, 4),
                "max_stretch": round(r.max_stretch, 4),
                "verified": r.verified,
            }
            for r in report.rounds
        ]
        policies[policy] = summary
    return {
        "description": DESCRIPTION,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "scheme": "Theorem 1.1 (ScaleFreeNameIndependentScheme)",
        "graph": "grid 8x8",
        "edits": edits,
        "seed": SEED,
        "verify_every_rounds": VERIFY_EVERY,
        "policies": policies,
    }


def check() -> None:
    """CI invariants (deterministic, no wall-clock assertions)."""
    # A short stream per policy: runs end to end, every scheduled
    # cold-rebuild bit-identity check passes (a divergence raises
    # ChurnVerificationError before we get here).
    for policy in POLICIES:
        report = run_policy(policy, edits=60, verify_every=2)
        verified = sum(1 for r in report.rounds if r.verified)
        assert verified >= 2, (
            f"{policy}: expected >= 2 verified rounds, got {verified}"
        )
        assert report.total_edits == 60
        assert report.repair_throughput > 0
    print("bench_churn --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(run(measure, check, output="BENCH_churn.json"))
