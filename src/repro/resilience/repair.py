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

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple, Type

import networkx as nx

from repro.core.params import SchemeParameters
from repro.pipeline.context import BuildContext
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
    #: scheme pins its metric's row store, substrates and tables;
    #: sweeping measurements that only read the counters were holding
    #: every rebuilt trio alive.
    schemes: List[RoutingScheme] = dataclasses.field(default_factory=list)

    @property
    def built_total(self) -> int:
        return sum(self.built.values())

    @property
    def reused_total(self) -> int:
        return sum(self.reused.values())


def _snapshot(context: BuildContext) -> Tuple[Dict[str, int], Dict[str, int]]:
    return (
        dict(context.stats.misses),
        {
            kind: context.stats.hits.get(kind, 0)
            + context.stats.disk_hits.get(kind, 0)
            for kind in set(context.stats.hits)
            | set(context.stats.disk_hits)
        },
    )


def _counter_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Per-kind growth of a counter, omitting kinds that did not move."""
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
        built=_counter_delta(built_before, built_after),
        reused=_counter_delta(reused_before, reused_after),
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
    path is pure cache hits.  After a real edit nothing is reused:
    :meth:`BuildContext.apply_edit` drops every artifact of the old
    graph but its pair samples, so a repair is a cold build.
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
