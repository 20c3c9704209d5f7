"""Command-line interface: run any registered experiment from the shell.

Usage::

    python -m repro list
    python -m repro table1 [--epsilon 0.5] [--pairs 300] [--jobs 4]
                           [--json] [--cache-dir .repro-cache] [--profile]
    python -m repro resilience [--pairs 100] [--jobs 4] [--json]
    python -m repro chaos [--pairs 100] [--loss 0.05] [--jobs 4] [--json]
    python -m repro scale [--sizes 256,2048,10000] [--pairs 100] [--json]
                          [--vicinity-scale 1,4,16] [--landmarks 8,16,32]
    python -m repro throughput [--sizes 256,2048] [--batch-sizes 64,4096]
                               [--pairs 300] [--json]
    python -m repro report [--output EXPERIMENTS.md] [--jobs 4]
                           [--provenance]
    python -m repro trace grid-8x8 nameind-sf 0 63 [--epsilon 0.5] [--json]

Commands are generated from the experiment registry
(:data:`repro.pipeline.registry.REGISTRY`); ``report`` regenerates
EXPERIMENTS.md; ``trace`` prints the per-hop decision record of one
route (see :mod:`repro.observability`).  Common flags:

* ``--jobs N``  — evaluate independent cells in ``N`` worker processes
  (``0`` = all cores); results are identical to the serial run.
* ``--json``    — emit the tables as JSON records instead of ASCII.
* ``--cache-dir DIR`` — persist built artifacts (metrics, hierarchies,
  packings, schemes) to an on-disk cache reused by later runs; clear it
  by deleting the directory.
* ``--profile`` — print the build-time profile (seconds per artifact
  kind, cache hit/miss counts) to stderr after the command, keeping
  ``--json`` output on stdout clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import report
from repro.pipeline.context import BuildContext
from repro.pipeline.registry import REGISTRY, run_experiment


def _context_from(args: argparse.Namespace) -> BuildContext:
    return BuildContext(cache_dir=getattr(args, "cache_dir", None))


def _int_tuple(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part)


def _emit_profile(args: argparse.Namespace, context: BuildContext) -> None:
    if getattr(args, "profile", False):
        print(json.dumps(context.profile_report(), indent=2), file=sys.stderr)


def _registry_command(name: str) -> Callable[[argparse.Namespace], None]:
    def _cmd(args: argparse.Namespace) -> None:
        context = _context_from(args)
        # Per-command flags (churn --edits, chaos --loss) forward as
        # extra kwargs; the registry drops them for runners that do
        # not accept them.
        extra = {
            key: getattr(args, key)
            for key in (
                "edits",
                "loss",
                "sizes",
                "batch_sizes",
                "vicinity_scale",
                "landmarks",
            )
            if getattr(args, key, None) is not None
        }
        tables = run_experiment(
            name,
            epsilon=args.epsilon,
            pair_count=args.pairs,
            context=context,
            jobs=args.jobs,
            **extra,
        )
        if args.json:
            print(json.dumps([t.to_dict() for t in tables], indent=2))
        else:
            for table in tables:
                table.print()
        _emit_profile(args, context)

    _cmd.__name__ = f"_cmd_{name.replace('-', '_')}"
    return _cmd


def _cmd_report(args: argparse.Namespace) -> None:
    context = _context_from(args)
    content = report.generate(
        pair_count=args.pairs,
        context=context,
        jobs=args.jobs,
        provenance=args.provenance,
    )
    with open(args.output, "w") as handle:
        handle.write(content)
    print(f"wrote {args.output}")
    _emit_profile(args, context)


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.observability.catalog import resolve_graph, resolve_scheme
    from repro.observability.trace import format_trace, replay

    try:
        graph = resolve_graph(args.graph)
        scheme_cls = resolve_scheme(args.scheme)
    except ValueError as exc:
        raise SystemExit(str(exc))
    from repro.core.params import SchemeParameters

    context = _context_from(args)
    metric = context.metric(graph)
    if not (0 <= args.source < metric.n and 0 <= args.target < metric.n):
        raise SystemExit(
            f"source/target must be node ids in [0, {metric.n})"
        )
    scheme = context.scheme(
        scheme_cls, metric, SchemeParameters(epsilon=args.epsilon)
    )
    result, trace = scheme.trace_route(args.source, args.target)
    if not replay(trace).matches(result.path, result.cost):
        raise SystemExit(
            "internal error: trace replay does not reproduce the route"
        )
    if args.json:
        print(trace.to_json())
    else:
        print(format_trace(trace))
        print(
            f"stretch {result.stretch:.4f} "
            f"(cost {result.cost:.3f} / optimal {result.optimal:.3f})"
        )
    _emit_profile(args, context)


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    **{name: _registry_command(name) for name in REGISTRY},
    "report": _cmd_report,
    "trace": _cmd_trace,
}

_COMMAND_HELP = {
    "report": "regenerate EXPERIMENTS.md",
    "trace": "print the per-hop decision trace of one route",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of 'Compact Routing "
            "Schemes in Networks of Low Doubling Dimension' as "
            "measured experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name in COMMANDS:
        spec = REGISTRY.get(name)
        help_text = spec.help if spec else _COMMAND_HELP[name]
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--epsilon", type=float, default=0.5)
        cmd.add_argument(
            "--json",
            action="store_true",
            help="emit results as JSON instead of text",
        )
        cmd.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persist built artifacts on disk (e.g. .repro-cache)",
        )
        cmd.add_argument(
            "--profile",
            action="store_true",
            help="print the build-time profile to stderr afterwards",
        )
        if name == "trace":
            cmd.add_argument("graph", help="fixture graph slug (e.g. grid-8x8)")
            cmd.add_argument("scheme", help="scheme slug (e.g. nameind-sf)")
            cmd.add_argument("source", type=int, help="source node id")
            cmd.add_argument("target", type=int, help="target node id")
            continue
        cmd.add_argument("--pairs", type=int, default=300)
        cmd.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent cells (0 = all cores)",
        )
        if name == "churn":
            cmd.add_argument(
                "--edits",
                type=int,
                default=500,
                help="total edits to commit across the churn stream",
            )
        if name == "chaos":
            cmd.add_argument(
                "--loss",
                type=float,
                default=None,
                help=(
                    "single loss rate instead of the default sweep "
                    "(also sets the composed-regime channel loss)"
                ),
            )
        if name in ("scale", "throughput"):
            cmd.add_argument(
                "--sizes",
                type=_int_tuple,
                default=None,
                metavar="N,N,...",
                help=(
                    "comma-separated graph sizes for the scaling study "
                    "(default 256,1024,2048; try 256,2048,10000)"
                ),
            )
        if name == "scale":
            cmd.add_argument(
                "--vicinity-scale",
                dest="vicinity_scale",
                type=lambda text: tuple(
                    float(part) for part in text.split(",") if part
                ),
                default=None,
                metavar="X,X,...",
                help=(
                    "vicinity sizes for the landmark sweep, as "
                    "multiples of sqrt(n) (default 1,4,16)"
                ),
            )
            cmd.add_argument(
                "--landmarks",
                type=_int_tuple,
                default=None,
                metavar="K,K,...",
                help=(
                    "landmark counts for the landmark sweep "
                    "(default sqrt(n)/2, sqrt(n), 2*sqrt(n))"
                ),
            )
        if name == "throughput":
            cmd.add_argument(
                "--batch-sizes",
                dest="batch_sizes",
                type=_int_tuple,
                default=None,
                metavar="B,B,...",
                help="engine batch sizes to sweep (default 64,512,4096)",
            )
        if name == "report":
            cmd.add_argument("--output", default="EXPERIMENTS.md")
            cmd.add_argument(
                "--provenance",
                action="store_true",
                help="append the build-profile / trace provenance appendix",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:")
        width = max(len(name) for name in COMMANDS)
        for name in COMMANDS:
            spec = REGISTRY.get(name)
            help_text = spec.help if spec else _COMMAND_HELP[name]
            print(f"  {name.ljust(width)}  {help_text}")
        return 0
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
