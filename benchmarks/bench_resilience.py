"""Benchmark the resilience subsystem (E16).

Reproduces the numbers recorded in ``BENCH_resilience.json``:

* ``routing_seconds`` — wall clock of the full E16 delivery/stretch
  table (4 graphs x 3 schemes x 3 policies, 300 pairs each);
* per-graph ``recover`` — rebuilding the scheme trio after a
  fail-and-fully-recover cycle from a fresh context vs the warm context
  that built the pre-failure schemes.  The topology is content-identical
  to what the warm context cached, so every substrate is a cache hit:
  the *best case*.  After a real edit ``BuildContext.apply_edit`` drops
  every artifact of the old graph, so that repair is a cold build (E17
  and ``BENCH_churn.json`` measure it under churn).

Run with ``PYTHONPATH=src python benchmarks/bench_resilience.py``
(writes ``BENCH_resilience.json``; a regeneration differs from the
committed file only in its wall-clock fields: ``routing_seconds.seconds``
and every ``cold_seconds`` and ``incremental_seconds``).
Pass ``--check`` to assert the structural invariant (``recover`` is
pure cache hits on every fixture) instead of printing JSON — used by
CI.
"""

from __future__ import annotations

import os
import platform
import sys
import time

from _runner import run as run_bench

from repro.core.params import SchemeParameters
from repro.experiments.harness import standard_suite
from repro.experiments.resilience import FAILURE_SEED, SCHEME_LINEUP, run
from repro.pipeline.context import BuildContext
from repro.resilience.repair import measure_repair, rebuild_through_context
from repro.resilience.router import POLICIES

DESCRIPTION = (
    "Resilience subsystem (E16): routing under failures with stale "
    "tables, and recovery cost of rebuilding schemes. One repair event "
    "per graph: 'recover' = fail-and-fully-recover (graph content hash "
    "unchanged, every substrate a cache hit — the best case), cold "
    "rebuild in a fresh context vs incremental rebuild in the warm one. "
    "Built/reused count whole artifacts. Reproduce with: "
    "PYTHONPATH=src python benchmarks/bench_resilience.py. Regenerated "
    "when edits stopped splicing metric rows: an edit now drops every "
    "artifact of the old graph (metric included), so a repair after a "
    "real edit is a cold build and the 'edit' events are gone; "
    "cold_built no longer adds one per metric row a cold build solves "
    "(grid 8x8: 72 -> 8), and the other recover counts are unchanged."
)
#: Pairs behind the delivery headline's fail-fast/detour contrast.
HEADLINE_PAIRS = 60


def measure(pair_count: int = 300):
    """Collect the benchmark numbers (the slow part, ~30s serial)."""
    context = BuildContext()
    start = time.perf_counter()
    run(pair_count=pair_count, context=context, jobs=1)
    routing_seconds = round(time.perf_counter() - start, 2)

    params = SchemeParameters(epsilon=0.5)
    classes = [cls for cls, _ in SCHEME_LINEUP]
    suite = standard_suite("small")
    repair = {}
    for graph_name, graph in suite:
        warm = BuildContext()
        rebuild_through_context(warm, graph, classes, params, label="prime")
        cold, incremental = measure_repair(
            graph, classes, params, warm_context=warm
        )
        repair[graph_name] = {
            "recover": {
                "cold_seconds": round(cold.seconds, 4),
                "cold_built": cold.built_total,
                "incremental_seconds": round(incremental.seconds, 4),
                "incremental_built": incremental.built_total,
                "incremental_reused": incremental.reused_total,
            },
        }
    return {
        "description": DESCRIPTION,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "routing_seconds": {
            "note": (
                f"full E16 delivery/stretch table: {len(suite)} graphs x "
                f"{len(SCHEME_LINEUP)} schemes x {len(POLICIES)} policies, "
                f"{pair_count} pairs each, serial"
            ),
            "seconds": routing_seconds,
        },
        "repair": repair,
        "delivery_headline": {"note": delivery_headline(context)},
    }


def delivery_headline(context: BuildContext) -> str:
    """Theorem 1.4's delivered counts per policy on the first fixture."""
    suite = standard_suite("small")[:1]
    table = run(pair_count=HEADLINE_PAIRS, suite=suite, context=context)
    cells = [(row[2], row[3]) for row in table.rows if row[1] == "Theorem 1.4"]
    (policy, delivered), rest = cells[0], cells[1:]
    return (
        f"{suite[0][0]}, 10% links failed (seed {FAILURE_SEED}), "
        f"{HEADLINE_PAIRS} pairs, SimpleNameIndependentScheme: "
        f"{policy} delivers {delivered}"
        + "".join(f", {name} {count}" for name, count in rest)
        + "; see EXPERIMENTS.md for the full table"
    )


def check(results) -> None:
    """CI invariants: deterministic artifact counts, not wall clock."""
    for graph_name, events in results["repair"].items():
        recover = events["recover"]
        assert recover["incremental_built"] == 0, (
            f"{graph_name}: recover should be pure cache hits, "
            f"built {recover['incremental_built']}"
        )
    print("bench_resilience --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(
        run_bench(
            measure,
            check=lambda: check(measure(pair_count=60)),
            output="BENCH_resilience.json",
        )
    )
