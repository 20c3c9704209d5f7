"""Layered benchmark of the routing library: build, serve and churn.

Run from the repository root::

    python3 perfbench/run.py --workload thm14-geo1k --seed 1 --seconds 12 --trace 0

``--trace 0`` measures one timed pass in this (fresh) interpreter and
prints the end-to-end metrics; ``--trace 1`` runs an untraced fixed-work
reference pass in a child interpreter, then the same work here with
spans around the library's public entry points, and prints the
per-layer metrics.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the provenance (machine, commit, seed, samples).

Without ``--workload`` every workload runs ``--runs`` times, each run a
fresh child interpreter with seed ``--seed + run``, and a table of
medians and quartiles is printed.  ``--selftest`` checks the benchmark
itself.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics of a ``--trace 0`` run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "engine_routes_per_s": "routes/s",
    "engine_batch_p50_ms": "ms",
    "interp_routes_per_s": "routes/s",
    "sim_packets_per_s": "packets/s",
    "delivery_rate": "share",
    "mean_stretch": "ratio",
    "max_stretch": "ratio",
    "table_bits_mean": "bits",
    "table_bits_max": "bits",
    "header_bits": "bits",
}

#: Span layers whose call counts are reported (self time is reported
#: for every layer).
_COUNTED = (
    "metric.bounded",
    "metric.next_hop",
    "metric.distance",
    "metric.rows",
    "metric.update",
    "nets.hierarchy",
    "packing",
    "searchtree.build",
    "searchtree.search",
    "trees.build",
    "schemes.route",
    "pipeline.apply_edit",
    "engine.route",
    "chaos.link_faults",
    "resilience.route",
)

#: Per-layer counters of a ``--trace 1`` run: name -> unit (0 where the
#: layer does not run on a workload).
_COUNTERS = {
    "metric.rows_materialized": "count",
    "metric.row_misses": "count",
    "metric.row_hit_rate": "share",
    "metric.evictions": "count",
    "metric.dirty_rows": "count",
    "metric.rows_reused": "count",
    "pipeline.built": "count",
    "pipeline.reused": "count",
    "pipeline.reuse_ratio": "share",
    "pipeline.full_rebuilds": "count",
    "engine.compiled_mb": "MB",
    "engine.sweeps_per_batch": "sweeps",
    "engine.sweeps_max": "sweeps",
    "runtime.transmissions": "count",
    "runtime.retransmissions": "count",
    "runtime.duplicates": "count",
    "chaos.corrupt_detected": "count",
    "chaos.corrupt_undetected": "count",
    "resilience.detours": "count",
    "resilience.delivery_rate": "share",
    "churn.edits": "count",
    "churn.rounds": "count",
    "churn.edits_per_s": "edits/s",
}

_TRACE = {
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
    "trace.unattributed_pct": "%",
}

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

def per_layer_units(layers) -> Dict[str, str]:
    """Every per-layer metric name of a ``--trace 1`` run -> unit."""
    units = {}
    for layer in layers:
        if layer in _COUNTED:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(_COUNTERS)
    units.update(_TRACE)
    return units


# ----------------------------------------------------------------------
# Environment and provenance
# ----------------------------------------------------------------------


def _prepare_environment() -> None:
    """Cap BLAS/OpenMP threads at nproc and put ``src`` on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'repro'}")
    nproc = os.cpu_count() or 1
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance() -> Dict[str, Any]:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": _commit(),
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def _untraced_pass(name: str, seed: int, seconds: float, timed: bool):
    import tracing
    import workloads

    wrapped = tracing.installed()
    if wrapped:
        raise RuntimeError(f"untraced pass found span wrappers on {wrapped}")
    return workloads.run_pass(workloads.WORKLOADS[name], seed, seconds, timed)


def _child(args: List[str], timeout: float = 170.0) -> Dict[str, Any]:
    """Run this script in a fresh interpreter; its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_metrics(name: str, seed: int) -> Dict[str, Any]:
    """A reference pass in a child, then the traced pass here."""
    import tracing
    import workloads

    reference = _child(["--workload", name, "--seed", str(seed), "--fixed"])
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        result = workloads.run_pass(workloads.WORKLOADS[name], seed, 0.0, timed=False)
    finally:
        tracing.uninstall(undo)

    values: Dict[str, float] = {}
    for layer, (calls, self_s, _) in tracer.layers.items():
        if layer in _COUNTED:
            values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    for key in _COUNTERS:
        values[key] = result.layer.get(key, 0)
    # Rates are wall-clock: take them from the untraced reference.
    values["churn.edits_per_s"] = reference["layer"].get("churn.edits_per_s", 0)
    unattributed = result.wall_s - tracer.self_seconds()
    values["trace.wall_s"] = result.wall_s
    values["trace.overhead_pct"] = 100.0 * (result.wall_s / reference["wall_s"] - 1.0)
    values["trace.unattributed_s"] = unattributed
    values["trace.unattributed_pct"] = 100.0 * unattributed / result.wall_s

    failures = list(result.failures) + list(reference["failures"])
    failed = result.failed + reference["failed"]
    if result.counts != reference["counts"]:
        failures.append("traced pass counts differ from the untraced reference")
        failed += 1
    return {
        "values": values,
        "attempted": result.attempted + reference["attempted"],
        "failed": failed,
        "failures": failures,
        "spans": tracer.span_tree(),
    }


def _emit(correct: bool, attempted: int, failed: int, values, units, extra) -> None:
    print(json.dumps(extra, default=float))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    key: {"value": float(values[key]), "unit": unit}
                    for key, unit in units.items()
                },
            }
        )
    )


def run_workload(args) -> None:
    import tracing

    base = {"workload": args.workload, "seed": args.seed, "provenance": provenance()}
    if args.fixed:
        result = _untraced_pass(args.workload, args.seed, 0.0, timed=False)
        print(json.dumps(dataclasses.asdict(result), default=float))
        return
    if args.trace:
        traced = traced_metrics(args.workload, args.seed)
        for line in traced["failures"]:
            print(f"FAILED: {line}", file=sys.stderr)
        spans = traced.pop("spans")
        print(json.dumps({"span_tree": spans[:40]}), file=sys.stderr)
        _emit(
            traced["failed"] == 0,
            traced["attempted"],
            traced["failed"],
            traced["values"],
            per_layer_units(tracing.LAYERS),
            dict(base, mode="traced, fixed work"),
        )
        return
    result = _untraced_pass(args.workload, args.seed, args.seconds, timed=True)
    for line in result.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    _emit(
        result.failed == 0,
        result.attempted,
        result.failed,
        result.metrics,
        END_TO_END,
        dict(
            base,
            mode="timed",
            seconds=args.seconds,
            fail_rate=result.failed / result.attempted,
            wall_s=result.wall_s,
            info=result.info,
            layer=result.layer,
        ),
    )


# ----------------------------------------------------------------------
# All workloads, and the self-test
# ----------------------------------------------------------------------


def run_all(args) -> int:
    import workloads

    rows = []
    correct = True
    attempted = failed = 0
    summary: Dict[str, Any] = {}
    for name in workloads.WORKLOADS:
        runs = []
        for run in range(args.runs):
            line = _child(
                ["--workload", name, "--seed", str(args.seed + run),
                 "--seconds", str(args.seconds), "--trace", "0"]
            )
            runs.append(line)
            correct = correct and line["correct"]
            attempted += line["attempted"]
            failed += line["failed"]
        if args.trace:
            traced = _child(["--workload", name, "--seed", str(args.seed), "--trace", "1"])
            summary[f"{name}/trace"] = traced["metrics"]
            correct = correct and traced["correct"]
        for metric, unit in END_TO_END.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            summary[f"{name}/{metric}"] = {"value": median, "unit": unit}
            rows.append(
                f"{name:20s} {metric:22s} {median:14.6g} {unit:10s} "
                f"[{q1:.6g}, {q3:.6g}]  runs={len(values)}"
            )
    print(f"{'workload':20s} {'metric':22s} {'median':>14s} {'unit':10s} [q1, q3]")
    print("\n".join(rows))
    print(json.dumps({"provenance": provenance(), "seeds": [args.seed, args.seed + args.runs - 1]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def _declaration_problems() -> List[str]:
    """Differences between BENCHMARK.json and what the code reports."""
    import tracing
    import workloads

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"BENCHMARK.json unreadable: {exc}"]
    problems = []
    for key, reported in (
        ("end_to_end", END_TO_END),
        ("per_layer", per_layer_units(tracing.LAYERS)),
    ):
        declared = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if declared != reported:
            problems.append(f"BENCHMARK.json {key} differs from the reported metrics")
    declared = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    if declared != {w.name: w.why for w in workloads.WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    return problems


def selftest(args) -> int:
    """Check the benchmark: declarations, exact repeats, span accounting."""
    problems = _declaration_problems()
    for path in sorted(HERE.glob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 9))
        except SyntaxError as exc:
            problems.append(f"{path.name} is not Python 3.9 syntax: {exc}")
    name = "churn-thm11-grid16"
    fixed = ["--workload", name, "--seed", str(args.seed), "--fixed"]
    first, second = _child(fixed), _child(fixed)
    if first["counts"] != second["counts"]:
        problems.append("two fixed passes of one seed report different counts")
    if first["failed"] or second["failed"]:
        problems.append(f"fixed pass failures: {first['failures'] + second['failures']}")
    traced = _child(["--workload", name, "--seed", str(args.seed), "--trace", "1"])
    metrics = {key: value["value"] for key, value in traced["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    gap = self_total + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]
    if abs(gap) > 1e-6 * metrics["trace.wall_s"]:
        problems.append(f"self times + unattributed miss the traced wall by {gap} s")
    if not traced["correct"]:
        problems.append("traced pass failed its output checks")
    for line in problems:
        print(f"selftest: {line}")
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="workload seed (977 was held out of the benchmark's tuning: "
        "re-check claims on it)",
    )
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of a timed pass's serving loops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when --workload is omitted")
    parser.add_argument("--selftest", action="store_true",
                        help="check exact repeats and span accounting")
    parser.add_argument("--fixed", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
