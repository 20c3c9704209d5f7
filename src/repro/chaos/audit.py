"""Table-integrity auditing: detect, quarantine, and heal corrupted rows.

A deployed router's tables live in memory and can rot — bad RAM, a
partial write, an overlay bug.  Every scheme in this repository builds
its tables from the metric's per-node rows: the shortest-path and Cowen
baselines forward through them on every hop (``next_hop`` walks the
predecessor rows), and the compact schemes copy their next hops and
tree-edge costs out of them at build time.  So those rows are the
routing-table basis worth guarding:

* :class:`TableAuditor` seals a SHA-256 digest of every node's row
  (:meth:`GraphMetric.row_digest`) at build time and re-audits on
  demand — any flipped entry changes the digest.  It digests the
  metric's rows only: the copies the compact schemes store (ring next
  hops, search-tree edge costs) and the weight columns their compiled
  tables carry beside each next hop are not digested, so a corrupted
  stored hop or cost goes unseen by the audit (compiling a hop that is
  not its owner's neighbour does fail, with ``NonEdgeHop``);
* :class:`CorruptionInjector` is the fault injector: it flips stored
  distance/predecessor entries of chosen nodes (bypassing the public
  API on purpose — that is what memory corruption does) and drops the
  node's derived caches so the corruption is *live*;
* :func:`quarantine_and_repair` closes the loop: audit, quarantine the
  corrupted nodes, re-solve their rows in place from the metric's own
  edge array (:meth:`BuildContext.repair_rows` row splicing), and
  re-audit;
* :func:`verify_against_cold` is the one cold-rebuild check, shared
  with the churn driver: routes and table sizes must be bit-identical
  to a cold rebuild of the caller's current graph, else
  :class:`TableIntegrityError`.

This module is deliberately *not* imported from ``repro.chaos.__init__``
for layering reasons (it pulls in the build pipeline); import it
directly, mirroring :mod:`repro.observability.catalog`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Optional

import networkx as nx

from repro.core.params import SchemeParameters
from repro.core.seeding import derive_seed
from repro.core.types import NodeId, ReproError
from repro.metric.graph_metric import GraphMetric
from repro.pipeline.context import BuildContext
from repro.pipeline.sampling import sample_ordered_pairs


class TableIntegrityError(ReproError):
    """Routing-table state diverged from its sealed/cold reference."""


class TableAuditor:
    """Seals per-node row digests and detects later divergence."""

    def __init__(self, metric: GraphMetric) -> None:
        self._metric = metric
        self._sealed: Dict[NodeId, str] = {}
        self.seal()

    @property
    def metric(self) -> GraphMetric:
        return self._metric

    def seal(self) -> "TableAuditor":
        """Record the current row digests as the trusted reference."""
        self._sealed = {
            v: self._metric.row_digest(v) for v in self._metric.nodes
        }
        return self

    def audit(self) -> List[NodeId]:
        """Nodes whose rows no longer match their sealed digest."""
        return sorted(
            v
            for v, digest in self._sealed.items()
            if self._metric.row_digest(v) != digest
        )

    def verify(self) -> None:
        """Raise :class:`TableIntegrityError` if any row diverged."""
        corrupted = self.audit()
        if corrupted:
            raise TableIntegrityError(
                f"table rows corrupted at nodes {corrupted}"
            )


class CorruptionInjector:
    """Seeded fault injector: flip stored routing-table entries.

    Each corrupted node draws from its own derived stream
    (``derive_seed(seed, "table-corrupt", node)``), so which entries
    flip depends only on the node id and the master seed — injection
    order is irrelevant (the convention of :mod:`repro.core.seeding`).
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    def corrupt(
        self, metric: GraphMetric, nodes: Iterable[NodeId]
    ) -> List[NodeId]:
        """Flip one distance and one predecessor entry per node.

        Writes through :meth:`GraphMetric.mutable_row` — the raw stored
        arrays, bypassing the query API on purpose (that is what memory
        corruption does) — then :meth:`GraphMetric.invalidate_derived`
        drops the node's derived caches so routes served afterwards
        really read the corrupted state.  Returns the corrupted ids.
        """
        n = metric.n
        corrupted = sorted({int(v) for v in nodes})
        for v in corrupted:
            if not 0 <= v < n:
                raise ValueError(f"node {v} outside [0, {n})")
            rng = random.Random(
                derive_seed(self._seed, "table-corrupt", v)
            )
            dist_row, pred_row = metric.mutable_row(v)
            victim = rng.randrange(n - 1)
            if victim >= v:
                victim += 1  # never the trivial d(v, v) = 0 entry
            # Scale a finite positive distance: stays finite/positive,
            # always differs from the true value.
            dist_row[victim] *= 1.0 + 0.25 * (1 + rng.random())
            pred_victim = rng.randrange(n - 1)
            if pred_victim >= v:
                pred_victim += 1
            old_pred = int(pred_row[pred_victim])
            new_pred = (old_pred + 1 + rng.randrange(max(1, n - 1))) % n
            if new_pred == old_pred:
                new_pred = (new_pred + 1) % n
            pred_row[pred_victim] = new_pred
            metric.invalidate_derived(v)
        return corrupted


@dataclasses.dataclass
class AuditRepairReport:
    """Outcome of one detect-quarantine-heal cycle."""

    injected: List[NodeId]
    detected: List[NodeId]
    rows_respliced: int
    clean_after: bool

    @property
    def detection_rate(self) -> float:
        if not self.injected:
            return 1.0
        hit = len(set(self.detected) & set(self.injected))
        return hit / len(self.injected)


def quarantine_and_repair(
    context: BuildContext,
    auditor: TableAuditor,
    injected: Optional[Iterable[NodeId]] = None,
) -> AuditRepairReport:
    """Audit, quarantine corrupted nodes, and heal them by row splicing.

    Detection uses the sealed digests; every flagged node's row is
    re-solved from the metric's own edge array through
    :meth:`BuildContext.repair_rows` (:meth:`GraphMetric.splice_rows`,
    the per-row Dijkstra of a cold build), after which a re-audit must
    come back clean.  ``injected`` is the ground truth (what the
    injector actually touched), kept on the report so callers can
    assert the detection rate.
    """
    detected = auditor.audit()
    respliced = context.repair_rows(auditor.metric, detected)
    clean = not auditor.audit()
    if detected and not clean:
        raise TableIntegrityError(
            "row splicing failed to restore the sealed digests"
        )
    return AuditRepairReport(
        injected=sorted(int(v) for v in injected)
        if injected is not None
        else list(detected),
        detected=detected,
        rows_respliced=respliced,
        clean_after=clean,
    )


def verify_against_cold(
    scheme,
    scheme_cls,
    graph: nx.Graph,
    params: Optional[SchemeParameters] = None,
    pair_count: int = 60,
    seed: int = 0,
) -> int:
    """Assert ``scheme`` is bit-identical to a cold rebuild of ``graph``.

    The one cold-rebuild check (``ChurnDriver._verify`` calls it too): a
    fresh context builds ``scheme_cls`` on ``graph``, the caller's
    current graph, then ``table_bits_vector`` must match and so must
    every :class:`~repro.core.types.RouteResult` of a seeded pair
    sample, compared whole with ``==``.  Returns the number of pairs
    compared; raises :class:`TableIntegrityError` on divergence.
    """
    cold_context = BuildContext()
    cold_metric = cold_context.metric(graph)
    cold = cold_context.scheme(scheme_cls, cold_metric, params)
    if scheme.table_bits_vector() != cold.table_bits_vector():
        raise TableIntegrityError(
            "table_bits_vector diverged from cold rebuild"
        )
    n = cold_metric.n
    pairs = sample_ordered_pairs(n, min(pair_count, n * (n - 1)), seed=seed)
    for u, v in pairs:
        warm = scheme.route(u, v)
        ref = cold.route(u, v)
        if warm != ref:
            raise TableIntegrityError(
                f"route {u}->{v} diverged from cold rebuild: "
                f"{warm} != {ref}"
            )
    return len(pairs)
