"""Recovery cost: full rebuild vs incremental rebuild after repair.

Once failed links come back up, the routing scheme must be rebuilt (its
tables are stale).  The question this module measures — the open problem
*On Compact Routing for the Internet* poses as deployment-deciding — is
what that repair costs:

* **cold rebuild** — a fresh :class:`BuildContext`: APSP, hierarchy,
  packing, and scheme are all constructed from scratch;
* **incremental rebuild** — the *same* context that built the
  pre-failure scheme: every artifact is keyed by graph content hash, so
  any substrate whose input is unchanged (after full recovery: all of
  them) is reused instead of rebuilt.

Edits are routed through :class:`~repro.pipeline.context.BuildContext`
rather than patched into live tables, so the incremental result is
*bit-identical* to a from-scratch build by construction — the tests
assert identical routing decisions — and the saving is measured, not
assumed.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple, Type

import networkx as nx

from repro.core.edits import GraphEdit
from repro.core.params import SchemeParameters
from repro.pipeline.context import BuildContext, EditReport
from repro.resilience.degraded import DegradedNetwork
from repro.schemes.base import RoutingScheme


@dataclasses.dataclass
class RepairMeasurement:
    """Measured cost of rebuilding schemes after a topology event."""

    label: str
    seconds: float
    #: Artifacts constructed during this rebuild, per kind.
    built: Dict[str, int]
    #: Artifacts served from the context cache, per kind.
    reused: Dict[str, int]
    #: The rebuilt schemes — populated only when the measurement was
    #: taken with ``keep_schemes=True``.  Retention is opt-in because a
    #: scheme pins its full APSP matrix; sweeping measurements that only
    #: read the counters were holding every rebuilt trio alive.
    schemes: List[RoutingScheme] = dataclasses.field(default_factory=list)

    @property
    def built_total(self) -> int:
        return sum(self.built.values())

    @property
    def reused_total(self) -> int:
        return sum(self.reused.values())


def surviving_graph(degraded: DegradedNetwork) -> nx.Graph:
    """The degraded topology as a standalone graph (for rebuilds).

    Nodes are kept (so ids stay aligned); failed edges and every edge of
    a crashed node are removed, and weight perturbations are applied.
    Rebuilding on this graph raises ``PreprocessingError`` when the
    failures disconnected it — a real deployment would rebuild per
    component.
    """
    metric = degraded.metric
    graph = nx.Graph()
    graph.add_nodes_from(metric.graph.nodes())
    for u, v in metric.graph.edges():
        if degraded.edge_alive(u, v):
            graph.add_edge(u, v, weight=degraded.edge_weight(u, v))
    return graph


def _snapshot(context: BuildContext) -> Tuple[Dict[str, int], Dict[str, int]]:
    return (
        copy.deepcopy(context.stats.misses),
        {
            kind: context.stats.hits.get(kind, 0)
            + context.stats.disk_hits.get(kind, 0)
            for kind in set(context.stats.hits)
            | set(context.stats.disk_hits)
        },
    )


def _delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    return {
        kind: after.get(kind, 0) - before.get(kind, 0)
        for kind in set(before) | set(after)
        if after.get(kind, 0) - before.get(kind, 0)
    }


def rebuild_through_context(
    context: BuildContext,
    graph: nx.Graph,
    scheme_classes: Sequence[Type[RoutingScheme]],
    params: Optional[SchemeParameters] = None,
    label: str = "rebuild",
    keep_schemes: bool = False,
) -> RepairMeasurement:
    """Build every scheme on ``graph`` through ``context``, timed.

    The context decides, per artifact, whether to reuse a cached copy
    (content hash unchanged) or construct anew; the measurement records
    both counts alongside wall-clock seconds.  The built scheme objects
    are retained on the measurement only with ``keep_schemes=True``.
    """
    if params is None:
        params = SchemeParameters()
    built_before, reused_before = _snapshot(context)
    start = time.perf_counter()
    metric = context.metric(graph)
    schemes = [
        context.scheme(cls, metric, params) for cls in scheme_classes
    ]
    seconds = time.perf_counter() - start
    built_after, reused_after = _snapshot(context)
    return RepairMeasurement(
        label=label,
        seconds=seconds,
        built=_delta(built_before, built_after),
        reused=_delta(reused_before, reused_after),
        schemes=schemes if keep_schemes else [],
    )


def measure_repair(
    graph: nx.Graph,
    scheme_classes: Sequence[Type[RoutingScheme]],
    params: Optional[SchemeParameters] = None,
    warm_context: Optional[BuildContext] = None,
    keep_schemes: bool = False,
) -> Tuple[RepairMeasurement, RepairMeasurement]:
    """Measured cold vs incremental rebuild on a recovered topology.

    ``warm_context`` is the context that built the pre-failure schemes
    (a fresh one is primed here if not given — mirroring a deployment
    that kept its build cache).  Returns ``(cold, incremental)``
    measurements for the same ``graph`` and scheme set.

    Note the topology here is *content-identical* to what the warm
    context already built (fail-and-fully-recover), so the incremental
    path is pure cache hits.  For the cost of repairing after a real
    edit — where only the substrate partitions intersecting the edit's
    dirty set are rebuilt, and every scheme — see
    :func:`measure_edit_repair`.
    """
    if warm_context is None:
        warm_context = BuildContext()
        rebuild_through_context(
            warm_context, graph, scheme_classes, params, label="prime"
        )
    cold = rebuild_through_context(
        BuildContext(),
        graph,
        scheme_classes,
        params,
        label="cold rebuild",
        keep_schemes=keep_schemes,
    )
    incremental = rebuild_through_context(
        warm_context,
        graph,
        scheme_classes,
        params,
        label="incremental rebuild",
        keep_schemes=keep_schemes,
    )
    return cold, incremental


def measure_edit_repair(
    graph: nx.Graph,
    edit: "GraphEdit",
    scheme_classes: Sequence[Type[RoutingScheme]],
    params: Optional[SchemeParameters] = None,
    warm_context: Optional[BuildContext] = None,
    keep_schemes: bool = False,
) -> Tuple[RepairMeasurement, RepairMeasurement, "EditReport"]:
    """Cold vs incremental rebuild after a *real* topology edit.

    Unlike :func:`measure_repair` (fail-and-fully-recover: the warm
    context sees an unchanged content hash and reuses everything), this
    applies ``edit`` through :meth:`BuildContext.apply_edit` — the graph
    genuinely changes, the edit's dirty node set is computed, the
    incremental rebuild reconstructs only the metric rows and hierarchy
    partitions that intersect it, and every scheme is built again on
    the repaired substrates.  The honest comparison for churn repair
    cost: built-vs-reused counts are reported against the dirty set,
    not against a topology that never really changed.

    ``graph`` is mutated in place (it carries the edit afterwards).
    Returns ``(cold, incremental, edit_report)`` where both rebuilds
    describe the **post-edit** graph and are bit-identical by
    construction (asserted in tests/test_churn.py).
    """
    if warm_context is None:
        warm_context = BuildContext()
        rebuild_through_context(
            warm_context, graph, scheme_classes, params, label="prime"
        )
    edit_report = warm_context.apply_edit(graph, edit)
    incremental = rebuild_through_context(
        warm_context,
        graph,
        scheme_classes,
        params,
        label=f"incremental repair ({edit.describe()})",
        keep_schemes=keep_schemes,
    )
    # Fold the metric-row splice performed inside apply_edit into the
    # incremental counters — those rows are repair work too.
    if edit_report.rows_rebuilt:
        incremental.built["metric_row"] = (
            incremental.built.get("metric_row", 0) + edit_report.rows_rebuilt
        )
    if edit_report.rows_reused:
        incremental.reused["metric_row"] = (
            incremental.reused.get("metric_row", 0) + edit_report.rows_reused
        )
    incremental.seconds += edit_report.seconds
    cold = rebuild_through_context(
        BuildContext(),
        graph,
        scheme_classes,
        params,
        label="cold rebuild",
        keep_schemes=keep_schemes,
    )
    return cold, incremental, edit_report
