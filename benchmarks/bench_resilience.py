"""Benchmark the resilience subsystem (E16).

Reproduces the numbers recorded in ``BENCH_resilience.json``:

* ``routing_seconds`` — wall clock of the full E16 delivery/stretch
  table (4 graphs x 3 schemes x 3 policies, 300 pairs each);
* per-graph ``recover`` — rebuilding the scheme trio after a
  fail-and-fully-recover cycle from a fresh context vs the warm context
  that built the pre-failure schemes.  The topology is content-identical
  to what the warm context cached, so the dirty set is empty and every
  substrate is a cache hit: the *best case*;
* per-graph ``edit`` — the honest repair figure: a real single-edge
  weight change applied through ``BuildContext.apply_edit``, which
  computes the edit's dirty node set and rebuilds only the substrate
  partitions (metric rows, hierarchy levels, zooming parents)
  intersecting it; every scheme is built again on them.  Built/reused
  counts are reported against that dirty set, and the incremental
  result is bit-identical to a cold rebuild (asserted in
  tests/test_churn.py).

Run with ``PYTHONPATH=src python benchmarks/bench_resilience.py``.
Pass ``--check`` to assert the structural invariants (edit-repair
builds strictly fewer artifacts than cold on every fixture) instead of
printing JSON — used by CI.
"""

from __future__ import annotations

import sys
import time

from _runner import run as run_bench

from repro.core.params import SchemeParameters
from repro.experiments.harness import standard_suite
from repro.experiments.resilience import (
    SCHEME_LINEUP,
    repair_edit_for,
    run,
)
from repro.pipeline.context import BuildContext
from repro.resilience.repair import (
    measure_edit_repair,
    measure_repair,
    rebuild_through_context,
)


def measure(pair_count: int = 300):
    """Collect the benchmark numbers (the slow part, ~30s serial)."""
    context = BuildContext()
    start = time.perf_counter()
    run(pair_count=pair_count, context=context, jobs=1)
    routing_seconds = round(time.perf_counter() - start, 2)

    params = SchemeParameters(epsilon=0.5)
    classes = [cls for cls, _ in SCHEME_LINEUP]
    repair = {}
    for graph_name, graph in standard_suite("small"):
        warm = BuildContext()
        rebuild_through_context(warm, graph, classes, params, label="prime")
        cold, incremental = measure_repair(
            graph, classes, params, warm_context=warm
        )
        edited = graph.copy()
        cold_e, incremental_e, edit_report = measure_edit_repair(
            edited, repair_edit_for(edited), classes, params
        )
        repair[graph_name] = {
            "recover": {
                "cold_seconds": round(cold.seconds, 4),
                "cold_built": cold.built_total,
                "incremental_seconds": round(incremental.seconds, 4),
                "incremental_built": incremental.built_total,
                "incremental_reused": incremental.reused_total,
            },
            "edit": {
                "edit": edit_report.edit.describe(),
                "dirty_rows": len(edit_report.dirty),
                "nodes": edited.number_of_nodes(),
                "cold_seconds": round(cold_e.seconds, 4),
                "cold_built": cold_e.built_total,
                "incremental_seconds": round(incremental_e.seconds, 4),
                "incremental_built": incremental_e.built_total,
                "incremental_reused": incremental_e.reused_total,
            },
        }
    return {"routing_seconds": routing_seconds, "repair": repair}


def check(results) -> None:
    """CI invariants: deterministic artifact counts, not wall clock."""
    for graph_name, events in results["repair"].items():
        recover = events["recover"]
        assert recover["incremental_built"] == 0, (
            f"{graph_name}: recover should be pure cache hits, "
            f"built {recover['incremental_built']}"
        )
        edit = events["edit"]
        assert edit["incremental_built"] < edit["cold_built"], (
            f"{graph_name}: edit repair built {edit['incremental_built']} "
            f">= cold {edit['cold_built']}"
        )
        assert 0 < edit["dirty_rows"] <= edit["nodes"], (
            f"{graph_name}: dirty set {edit['dirty_rows']} out of range"
        )
    print("bench_resilience --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(
        run_bench(measure, check=lambda: check(measure(pair_count=60)))
    )
