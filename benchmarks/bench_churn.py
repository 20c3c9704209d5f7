"""Benchmark the churn subsystem (E17).

Reproduces the numbers recorded in ``BENCH_churn.json``: one scheme
(Theorem 1.1) driven through a 500-edit deterministic churn stream on
the grid 8x8 fixture under continuous packet load, once per fallback
policy.  Every cell replays the identical edit stream, so the policies
are a paired comparison.  Recorded per policy:

* the aggregate — repair throughput (edits per second of apply +
  incremental-rebuild time), mean delivery rate and stretch inside the
  staleness windows, total artifacts built vs reused;
* the **staleness-stretch vs repair-throughput curve** — one point per
  round: delivery rate and mean stretch of the packets routed against
  stale tables, alongside that round's repair throughput and dirty-row
  count.

Every 5th round the warm tables are asserted bit-identical (routes,
costs, ``table_bits_vector``) to a cold rebuild of the current graph;
any divergence raises and fails the benchmark.

Run with ``PYTHONPATH=src python benchmarks/bench_churn.py`` (writes
``BENCH_churn.json``; a regeneration differs from the committed file
only in its ``repair_throughput_eps`` fields, which are wall clock).
Pass ``--check`` for the CI variant: a shorter stream with a tighter
verification cadence, plus a weight-only stream asserting that
incremental repair genuinely reuses artifacts (strictly fewer built
than a cold rebuild constructs).  ``--check`` asserts deterministic
invariants, not wall-clock numbers.
"""

from __future__ import annotations

import os
import platform
import sys

from _runner import run

from repro.churn.driver import ChurnDriver
from repro.churn.stream import EditStream
from repro.core.edits import EditKind
from repro.core.params import SchemeParameters
from repro.experiments.harness import standard_suite
from repro.pipeline.context import BuildContext
from repro.resilience.repair import rebuild_through_context
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
    "apply_edit + incremental-rebuild wall clock), delivery rate and "
    "stretch inside the staleness windows, and the per-round "
    "staleness-stretch vs repair-throughput curve. Every 5th round "
    "the warm tables were asserted bit-identical (routes, costs, "
    "table_bits_vector) to a cold rebuild of the current graph — 10 "
    "verified rounds per policy, zero divergences. The fine_grained "
    "section commits one weight edit per round to expose single-edit "
    "repair locality (the batch-of-10 runs saturate the dirty-set "
    "union). Timing numbers vary run to run; edit streams, "
    "built/reused artifact counts, delivery and stretch are "
    "deterministic. Reproduce with: PYTHONPATH=src python "
    "benchmarks/bench_churn.py. Regenerated when schemes stopped "
    "rebuilding partially after an edit: built/reused no longer count "
    "ring blocks or search trees; Theorem 1.1 never folded either, so "
    "every count here is unchanged."
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


def run_fine_grained(edits: int = 100):
    """Single-edit rounds, weight-only churn: the locality curve.

    At the default batch width of 10 the union of the edits' dirty sets
    approaches the whole node set, so per-round artifact reuse is
    modest — the honest aggregate, but it hides single-edit locality.
    This series commits one weight edit per round and records how much
    of the build each repair actually reuses.
    """
    _, graph = standard_suite("small")[0]
    stream = EditStream(seed=SEED, mix={EditKind.WEIGHT: 1.0})
    driver = ChurnDriver(
        graph.copy(),
        ScaleFreeNameIndependentScheme,
        policy="local-detour",
        params=SchemeParameters(epsilon=0.5),
        stream=stream,
        seed=SEED,
        edits_per_round=1,
        pairs_per_round=5,
        verify_every=20,
    )
    report = driver.run(edits=edits)
    return {
        "note": (
            "one weight edit per round; built/reused per round show "
            "repair locality (the batch-of-10 policy runs saturate the "
            "dirty-set union, so their reuse is structurally low)"
        ),
        "edits": edits,
        "repair_throughput_eps": round(report.repair_throughput, 3),
        "total_built": report.total_built,
        "total_reused": report.total_reused,
        "rounds": [
            {
                "round": r.index,
                "dirty_rows": r.dirty_rows,
                "built": sum(r.built.values()),
                "reused": sum(r.reused.values()),
                "repair_throughput_eps": round(r.repair_throughput, 3),
                "verified": r.verified,
            }
            for r in report.rounds
        ],
    }


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
                "dirty_rows": r.dirty_rows,
                "full_rebuilds": r.full_rebuilds,
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
        "fine_grained": run_fine_grained(),
    }


def check() -> None:
    """CI invariants (deterministic, no wall-clock assertions)."""
    # 1. A short stream per policy: runs end to end, every scheduled
    #    cold-rebuild bit-identity check passes (a divergence raises
    #    ChurnVerificationError before we get here).
    for policy in POLICIES:
        report = run_policy(policy, edits=60, verify_every=2)
        verified = sum(1 for r in report.rounds if r.verified)
        assert verified >= 2, (
            f"{policy}: expected >= 2 verified rounds, got {verified}"
        )
        assert report.total_edits == 60
        assert report.repair_throughput > 0

    # 2. Weight-only churn must show genuine incremental reuse: the
    #    rebuild after a weight-edit round constructs strictly fewer
    #    artifacts than a cold build of the same graph.
    _, graph = standard_suite("small")[0]
    graph = graph.copy()
    stream = EditStream(seed=SEED, mix={EditKind.WEIGHT: 1.0})
    driver = ChurnDriver(
        graph,
        ScaleFreeNameIndependentScheme,
        policy="local-detour",
        params=SchemeParameters(epsilon=0.5),
        stream=stream,
        seed=SEED,
        edits_per_round=5,
        pairs_per_round=10,
        verify_every=2,
    )
    report = driver.run(edits=20)
    assert report.total_reused > 0, "weight-only churn reused nothing"
    cold = BuildContext()
    cold_measure = rebuild_through_context(
        cold,
        graph.copy(),
        [ScaleFreeNameIndependentScheme],
        SchemeParameters(epsilon=0.5),
        label="cold",
    )
    per_round_built = max(sum(r.built.values()) for r in report.rounds)
    assert per_round_built < cold_measure.built_total, (
        f"incremental round built {per_round_built} >= cold "
        f"{cold_measure.built_total}"
    )
    print("bench_churn --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(run(measure, check, output="BENCH_churn.json"))
