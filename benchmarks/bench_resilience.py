"""Benchmark the resilience subsystem (E16).

Reproduces the numbers recorded in ``BENCH_resilience.json``:

* ``routing_seconds`` — wall clock of the full E16 delivery/stretch
  table (4 graphs x 3 schemes x 3 policies, 300 pairs each);
* ``delivery_headline`` — Theorem 1.4's delivered counts per policy on
  the first fixture.

Run with ``PYTHONPATH=src python benchmarks/bench_resilience.py``
(writes ``BENCH_resilience.json``; a regeneration differs from the
committed file only in its wall-clock field ``routing_seconds.seconds``).
Pass ``--check`` to assert E16's structural invariants at 60 pairs
instead of printing JSON — used by CI.
"""

from __future__ import annotations

import os
import platform
import sys
import time

from _runner import run as run_bench

from repro.experiments.harness import standard_suite
from repro.experiments.resilience import FAILURE_SEED, SCHEME_LINEUP, run
from repro.pipeline.context import BuildContext
from repro.resilience.router import POLICIES

DESCRIPTION = (
    "Resilience subsystem (E16): routing under failures with stale "
    "tables. Reproduce with: PYTHONPATH=src python "
    "benchmarks/bench_resilience.py. Regenerated when the 'repair' "
    "section went: it timed rebuilding the schemes after a link failed "
    "and came back, which only measured cache hits (0 artifacts built, "
    "4 reused on every graph; tests/test_resilience.py now asserts "
    "that the recovered graph is a pure cache hit)."
)
#: Pairs behind the delivery headline's fail-fast/detour contrast.
HEADLINE_PAIRS = 60


def measure(pair_count: int = 300):
    """Collect the benchmark numbers (the slow part, ~30s serial)."""
    context = BuildContext()
    start = time.perf_counter()
    run(pair_count=pair_count, context=context, jobs=1)
    routing_seconds = round(time.perf_counter() - start, 2)
    suite = standard_suite("small")
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


def check() -> None:
    """CI invariants on E16 at 60 pairs: every packet has one typed
    outcome, and no fallback policy delivers fewer packets than
    fail-fast on the same (graph, scheme)."""
    table = run(pair_count=HEADLINE_PAIRS)
    fail_fast = {}
    for graph, scheme, policy, ratio, *_, dropped, ttl, loops, _ in table.rows:
        delivered, total = (int(x) for x in ratio.split("/"))
        assert delivered + dropped + ttl + loops == total, (
            f"{graph} / {scheme} / {policy}: outcomes do not sum to {total}"
        )
        if policy == "fail-fast":
            fail_fast[graph, scheme] = delivered
        else:
            assert delivered >= fail_fast[graph, scheme], (
                f"{graph} / {scheme}: {policy} delivers {delivered}, "
                f"fail-fast {fail_fast[graph, scheme]}"
            )
    print("bench_resilience --check: all invariants hold")


if __name__ == "__main__":
    sys.exit(run_bench(measure, check, output="BENCH_resilience.json"))
