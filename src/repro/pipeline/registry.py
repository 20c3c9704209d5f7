"""Declarative experiment registry: ``name -> spec -> runner``.

The CLI and the report generator dispatch through :data:`REGISTRY`
instead of hand-wiring each experiment module.  A spec names the module
and runner functions; :func:`run_experiment` resolves them lazily (so
importing the pipeline never drags in every experiment), passes each
runner exactly the keyword arguments it accepts (``epsilon``,
``pair_count``, ``context``, ``jobs``), and normalizes the result to a
list of :class:`~repro.experiments.harness.ExperimentTable`.

Because every runner receives the *same* :class:`BuildContext`, graph
suites, pair samples, and substrates are deduplicated across
experiments — running ``table1`` then ``fig1`` builds each shared
scheme once.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from typing import Any, Dict, List, Optional, Tuple

from repro.pipeline.context import BuildContext


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Args:
        name: CLI command name.
        help: One-line description shown by ``python -m repro list``.
        module: Dotted module path holding the runner functions.
        funcs: Runner function names, executed in order; each returns an
            ``ExperimentTable`` or a list of them.
        rename: Keyword-argument renames applied before dispatch, e.g.
            ``(("pair_count", "packet_count"),)`` for the congestion
            simulator.
        owners: ``(keyword, runner)`` pairs: a keyword that means
            something else to the other runners reaches only its owner.
    """

    name: str
    help: str
    module: str
    funcs: Tuple[str, ...] = ("run",)
    rename: Tuple[Tuple[str, str], ...] = ()
    owners: Tuple[Tuple[str, str], ...] = ()

    def runners(self) -> List[Any]:
        mod = importlib.import_module(self.module)
        return [getattr(mod, fn) for fn in self.funcs]


_SPECS = [
    ExperimentSpec(
        "table1",
        "name-independent schemes on the standard suite (paper Table 1)",
        "repro.experiments.table1",
    ),
    ExperimentSpec(
        "table2",
        "labeled schemes on the standard suite (paper Table 2)",
        "repro.experiments.table2",
    ),
    ExperimentSpec(
        "fig1",
        "stretch vs epsilon for labeled and name-independent schemes",
        "repro.experiments.fig1",
        funcs=("run", "run_scalefree"),
    ),
    ExperimentSpec(
        "fig2",
        "per-node storage distribution across the suite",
        "repro.experiments.fig2",
    ),
    ExperimentSpec(
        "fig3",
        "construction cost, net counting, and adversarial lower-bound trees",
        "repro.experiments.fig3",
        funcs=("run_construction", "run_counting", "run_adversary"),
        # run_adversary's own ``epsilon`` is the lower-bound tree's.
        rename=(("epsilon", "scheme_epsilon"),),
        # ``n`` sizes the adversary tree; the construction audit and the
        # counting argument keep their own sizes.
        owners=(("n", "run_adversary"),),
    ),
    ExperimentSpec(
        "scalefree",
        "scale-free vs non-scale-free storage comparison",
        "repro.experiments.scalefree",
    ),
    ExperimentSpec(
        "stretch-sweep",
        "stretch of every scheme as epsilon sweeps",
        "repro.experiments.sweeps",
        funcs=("run_stretch_sweep",),
    ),
    ExperimentSpec(
        "storage-scaling",
        "table size growth with n",
        "repro.experiments.sweeps",
        funcs=("run_storage_scaling",),
    ),
    ExperimentSpec(
        "structures",
        "net hierarchy and ball packing structure audit",
        "repro.experiments.structures",
    ),
    ExperimentSpec(
        "related-work",
        "comparison against related-work baselines (Cowen landmarks, oracle)",
        "repro.experiments.related_work",
    ),
    ExperimentSpec(
        "ablations",
        "tree-router, ring-restriction, and packing-service ablations",
        "repro.experiments.ablation",
        funcs=("run_tree_router", "run_ring_restriction", "run_packing_service"),
    ),
    ExperimentSpec(
        "congestion",
        "queueing simulation under uniform demands",
        "repro.experiments.congestion",
        rename=(("pair_count", "packet_count"),),
    ),
    ExperimentSpec(
        "relaxed",
        "relaxed-guarantee scheme variants",
        "repro.experiments.relaxed",
    ),
    ExperimentSpec(
        "storage-audit",
        "bit-level audit of every table entry",
        "repro.experiments.storage_audit",
    ),
    ExperimentSpec(
        "resilience",
        "delivery and stretch under link failures",
        "repro.experiments.resilience",
    ),
    ExperimentSpec(
        "churn",
        "incremental maintenance under continuous edits and load",
        "repro.experiments.churn",
    ),
    ExperimentSpec(
        "chaos",
        "delivery under lossy links, ARQ recovery, and table healing",
        "repro.experiments.chaos",
        funcs=("run", "run_degraded", "run_audit"),
    ),
    ExperimentSpec(
        "scale",
        "lazy-substrate scaling and power-law degradation (E19)",
        "repro.experiments.scale",
        funcs=("run", "run_doubling", "run_landmark_sweep"),
        # ``sizes`` is the landmark scaling study's; E19b keeps the sizes
        # where Theorem 1.4 is still buildable.
        owners=(("sizes", "run"),),
    ),
    ExperimentSpec(
        "throughput",
        "compiled batch engine routes/sec vs batch size and n (E20)",
        "repro.experiments.throughput",
    ),
]

REGISTRY: Dict[str, ExperimentSpec] = {spec.name: spec for spec in _SPECS}


def _call_with_accepted(func: Any, kwargs: Dict[str, Any]) -> Any:
    """Call ``func`` with the subset of ``kwargs`` it accepts."""
    signature = inspect.signature(func)
    accepted = {
        name: value
        for name, value in kwargs.items()
        if name in signature.parameters
    }
    return func(**accepted)


def run_experiment(
    name: str,
    epsilon: float = 0.5,
    pair_count: int = 300,
    context: Optional[BuildContext] = None,
    jobs: int = 1,
    **extra: Any,
) -> List[Any]:
    """Run one registered experiment; returns its ``ExperimentTable`` list.

    ``context`` defaults to a fresh in-memory :class:`BuildContext`;
    pass a shared one to reuse substrates across experiments.  Extra
    keyword arguments are forwarded to runners that accept them (e.g.
    ``edits`` for the churn experiment) and silently dropped otherwise;
    a keyword the spec gives an owner reaches that runner alone.
    """
    spec = REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r} (known: {known})")
    if context is None:
        context = BuildContext()
    kwargs = {
        "epsilon": epsilon,
        "pair_count": pair_count,
        "context": context,
        "jobs": jobs,
        **extra,
    }
    for old, new in spec.rename:
        kwargs[new] = kwargs.pop(old)
    owners = dict(spec.owners)
    tables: List[Any] = []
    for func, runner in zip(spec.funcs, spec.runners()):
        mine = {k: v for k, v in kwargs.items() if owners.get(k, func) == func}
        result = _call_with_accepted(runner, mine)
        if isinstance(result, list):
            tables.extend(result)
        else:
            tables.append(result)
    return tables
