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

Run with ``PYTHONPATH=src python benchmarks/bench_resilience.py``
(writes ``BENCH_resilience.json``; a regeneration differs from the
committed file only in its wall-clock fields: ``routing_seconds.seconds``
and every ``cold_seconds`` and ``incremental_seconds``).
Pass ``--check`` to assert the structural invariants (edit-repair
builds strictly fewer artifacts than cold on every fixture) instead of
printing JSON — used by CI.
"""

from __future__ import annotations

import os
import platform
import sys
import time

from _runner import run as run_bench

from repro.core.params import SchemeParameters
from repro.experiments.harness import standard_suite
from repro.experiments.resilience import (
    FAILURE_SEED,
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
from repro.resilience.router import POLICIES

DESCRIPTION = (
    "Resilience subsystem (E16): routing under failures with stale "
    "tables, and recovery cost of rebuilding schemes. Two repair "
    "events per graph: 'recover' = fail-and-fully-recover (graph "
    "content hash unchanged, dirty set empty, every substrate a cache "
    "hit — the best case) and 'edit' = a real single-edge weight "
    "change applied through BuildContext.apply_edit, which computes "
    "the edit's dirty node set and rebuilds only the substrate "
    "partitions (metric rows, hierarchy levels, zooming parents) "
    "intersecting it; every scheme is then built again on the "
    "repaired substrates. Built/reused counts include the "
    "per-partition artifacts (cold builds fold all-built partition "
    "counts), so cold-vs-incremental is an honest like-for-like "
    "comparison; the incremental result is bit-identical to a cold "
    "rebuild (asserted in tests/test_churn.py). Reproduce with: "
    "PYTHONPATH=src python benchmarks/bench_resilience.py. "
    "Regenerated when schemes stopped rebuilding partially after an "
    "edit: built/reused no longer count ring blocks or search trees "
    "(cold builds used to fold one per net point and level), and the "
    "shortest-path scheme, once promoted, is now built again, so its "
    "artifact moved from reused to built."
)
#: Why each fixture's edit repair reuses what it does (formatted with
#: the fixture's ``edit`` record).
EDIT_NOTES = {
    "grid-with-holes 9x9": (
        "unit-weight grid with holes: predecessor ties genuinely "
        "reshuffle across most rows, so the honest dirty set is large"
    ),
    "geometric n=64": (
        "continuous weights, no ties: the flagship locality case — "
        "{dirty_rows}/{nodes} rows dirty, {incremental_reused} of {total} "
        "artifacts reused"
    ),
    "exp-path n=16": (
        "every edge of a path is a bridge, so any weight change "
        "genuinely dirties every row — the incremental path degrades "
        "to a full rebuild (metric container spliced in place, not "
        "reconstructed)"
    ),
}
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
        edited = graph.copy()
        cold_e, incremental_e, edit_report = measure_edit_repair(
            edited, repair_edit_for(edited), classes, params
        )
        edit = {
            "edit": edit_report.edit.describe(),
            "dirty_rows": len(edit_report.dirty),
            "nodes": edited.number_of_nodes(),
            "cold_seconds": round(cold_e.seconds, 4),
            "cold_built": cold_e.built_total,
            "incremental_seconds": round(incremental_e.seconds, 4),
            "incremental_built": incremental_e.built_total,
            "incremental_reused": incremental_e.reused_total,
        }
        if graph_name in EDIT_NOTES:
            edit["note"] = EDIT_NOTES[graph_name].format(
                total=edit["incremental_built"] + edit["incremental_reused"],
                **edit,
            )
        repair[graph_name] = {
            "recover": {
                "cold_seconds": round(cold.seconds, 4),
                "cold_built": cold.built_total,
                "incremental_seconds": round(incremental.seconds, 4),
                "incremental_built": incremental.built_total,
                "incremental_reused": incremental.reused_total,
            },
            "edit": edit,
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
        run_bench(
            measure,
            check=lambda: check(measure(pair_count=60)),
            output="BENCH_resilience.json",
        )
    )
