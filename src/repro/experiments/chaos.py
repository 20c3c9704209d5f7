"""E18 — chaos: delivery under lossy links, ARQ recovery, table healing.

Three tables:

* :func:`run` — the loss sweep.  Every scheme serves the same demand
  set over a :class:`ChaosNetwork` (Bernoulli drop + latency jitter +
  header corruption), once fail-fast (no ARQ: a dropped or corrupted
  copy is simply lost) and once in reliability mode (checksummed
  headers, duplicate suppression, sender ARQ).  Reported per cell:
  delivery rate, goodput, retransmission overhead, duplicate and
  corruption counters, mean latency of delivered packets.
* :func:`run_degraded` — the composed regime: ``ChaosNetwork`` over a
  ``DegradedNetwork`` with stale tables and a ``ResilientRouter``
  fallback policy, i.e. *topology* faults (E16) and *channel* faults
  (E18) at once.  The router's actual walks — detours, truncated drops
  and all — are pushed through the chaos simulator via ``paths=``.
* :func:`run_audit` — table-integrity self-healing: corrupt stored
  routing-table rows on a sample of nodes, detect them all via sealed
  digests, re-solve the rows in place from the metric's own edges, and
  verify the healed scheme routes bit-identically to a cold rebuild.

Seed hygiene: every random stream is derived from :data:`MASTER_SEED`
through :func:`repro.core.seeding.derive_seed` with a distinct stream
tag (``"demands"``, ``"chaos"``, ``"failures"``, ``"corrupt-sample"``),
so composed experiments cannot silently correlate — see DESIGN.md,
"Seed-splitting convention".

The suite drops ``grid-with-holes 9x9`` deliberately: Theorem 1.4
walks reach 97 physical links there, where end-to-end ARQ at 5% loss
is theoretically futile (per-attempt success 0.95^97 < 1%) — no honest
retry budget recovers it, and the point of the sweep is the regime
where ARQ *does* restore delivery.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import networkx as nx

from repro.chaos import ArqConfig, ChaosConfig, ChaosNetwork
from repro.chaos.audit import (
    CorruptionInjector,
    TableAuditor,
    quarantine_and_repair,
    verify_against_cold,
)
from repro.core.params import SchemeParameters
from repro.core.seeding import derive_seed
from repro.experiments.harness import ExperimentTable, standard_suite
from repro.pipeline.context import BuildContext
from repro.pipeline.parallel import parallel_map
from repro.resilience.degraded import DegradedNetwork
from repro.resilience.failure_plan import FailurePlan
from repro.resilience.router import POLICIES, ResilientRouter
from repro.runtime.simulator import TrafficSimulator, uniform_demands
from repro.schemes.cowen_landmark import CowenLandmarkScheme
from repro.schemes.labeled_nonscalefree import NonScaleFreeLabeledScheme
from repro.schemes.labeled_scalefree import ScaleFreeLabeledScheme
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme
from repro.schemes.nameind_simple import SimpleNameIndependentScheme
from repro.schemes.shortest_path import ShortestPathScheme

#: Root of every E18 random stream (see module docstring).
MASTER_SEED = 18

#: All six schemes, the full comparison line-up.
SCHEME_LINEUP = (
    (ShortestPathScheme, "baseline"),
    (CowenLandmarkScheme, "Cowen landmarks"),
    (NonScaleFreeLabeledScheme, "Theorem 1.2"),
    (ScaleFreeLabeledScheme, "Theorem 1.3"),
    (SimpleNameIndependentScheme, "Theorem 1.4"),
    (ScaleFreeNameIndependentScheme, "Theorem 1.1"),
)

#: The trio used for the composed degraded+lossy and audit tables.
TRIO_LINEUP = (
    (ShortestPathScheme, "baseline"),
    (SimpleNameIndependentScheme, "Theorem 1.4"),
    (ScaleFreeNameIndependentScheme, "Theorem 1.1"),
)

#: Loss rates swept by :func:`run`; the ARQ budget is provisioned for
#: the top of this range (see :data:`RELIABLE_ARQ`).
LOSSES = (0.0, 0.02, 0.05)

#: Latency jitter (uniform [0, jitter) per crossing) and header
#: corruption probability shared by every lossy cell.
JITTER = 0.5
CORRUPTION = 0.005

#: The reliability policy of the sweep: a generous retry budget with a
#: capped backoff cadence.  Name-independent walks reach ~45 physical
#: links on the suite, so per-attempt success at 5% loss can be ~10%;
#: the budget must absorb that (DESIGN.md derives the sizing).
RELIABLE_ARQ = ArqConfig(max_retries=128)


def chaos_suite(
    suite: Optional[List[Tuple[str, nx.Graph]]] = None,
) -> List[Tuple[str, nx.Graph]]:
    """The standard small suite minus the ARQ-futile holes graph."""
    if suite is None:
        suite = standard_suite("small")
    return [entry for entry in suite if entry[0] != "grid-with-holes 9x9"]


def _sweep_cell(payload) -> List[object]:
    """Process-pool worker: one (graph, scheme, loss, arq) sweep cell."""
    graph_name, scheme, label, loss, arq, demands, chaos_seed = payload
    chaos = ChaosNetwork(
        scheme.metric,
        ChaosConfig(loss=loss, jitter=JITTER, corruption=CORRUPTION),
        seed=chaos_seed,
    )
    report = TrafficSimulator(scheme).run(demands, chaos=chaos, arq=arq)
    return [
        graph_name,
        label,
        loss,
        "on" if arq is not None else "off",
        f"{report.delivered}/{report.offered}",
        round(report.delivery_rate(), 4),
        round(report.goodput(), 4),
        round(report.retransmission_overhead(), 3),
        report.duplicate_deliveries(),
        report.corrupt_detected(),
        report.corrupt_undetected(),
        round(report.mean_latency(), 2),
    ]


def run(
    epsilon: float = 0.5,
    pair_count: int = 300,
    losses: Sequence[float] = LOSSES,
    loss: Optional[float] = None,
    suite: Optional[List[Tuple[str, nx.Graph]]] = None,
    context: Optional[BuildContext] = None,
    jobs: int = 1,
) -> ExperimentTable:
    """Delivery of every scheme × loss rate, fail-fast vs ARQ.

    ``loss`` (the CLI's ``--loss``) collapses the sweep to one point.
    """
    params = SchemeParameters(epsilon=epsilon)
    if loss is not None:
        losses = (loss,)
    suite = chaos_suite(suite)
    if context is None:
        context = BuildContext()
    demand_seed = derive_seed(MASTER_SEED, "demands")
    chaos_seed = derive_seed(MASTER_SEED, "chaos")
    cells = []
    for graph_name, graph in suite:
        metric = context.metric(graph)
        demands = uniform_demands(
            metric.n, pair_count, rate=2.0, seed=demand_seed
        )
        for scheme_cls, label in SCHEME_LINEUP:
            scheme = context.scheme(scheme_cls, metric, params)
            for loss in losses:
                for arq in (None, RELIABLE_ARQ):
                    cells.append(
                        (
                            graph_name,
                            scheme,
                            label,
                            loss,
                            arq,
                            demands,
                            chaos_seed,
                        )
                    )
    rows = parallel_map(_sweep_cell, cells, jobs=jobs)
    return ExperimentTable(
        title=(
            f"Chaos sweep (E18): loss x ARQ, jitter={JITTER}, "
            f"header corruption={CORRUPTION}, eps={epsilon}, "
            f"{pair_count} demands"
        ),
        columns=[
            "graph",
            "scheme",
            "loss",
            "arq",
            "delivered",
            "rate",
            "goodput",
            "retx ovh",
            "dups",
            "crpt det",
            "crpt und",
            "mean lat*",
        ],
        rows=rows,
        notes=[
            "* mean latency of DELIVERED packets (simulated time units); "
            "under ARQ it includes retransmission waits",
            f"arq=on: max_retries={RELIABLE_ARQ.max_retries}, backoff "
            f"{RELIABLE_ARQ.backoff}x capped at "
            f"{RELIABLE_ARQ.backoff_cap:.0f}x, "
            f"{RELIABLE_ARQ.checksum_bits}-bit header CRC; arq=off: "
            "fail-fast, one attempt, no checksum",
            "grid-with-holes 9x9 omitted: Theorem 1.4 walks reach 97 "
            "physical links there — end-to-end ARQ at 5% loss cannot "
            "recover a path that long (per-attempt success < 1%)",
            "single-bit header flips are always CAUGHT under ARQ (the "
            "CRC polynomials detect any odd number of flips), so "
            "'crpt und' can be nonzero only with arq=off",
        ],
    )


def _degraded_cell(payload) -> List[object]:
    """Worker: one (scheme, policy) composed stale+lossy cell."""
    graph_name, scheme, label, policy, fraction, loss, demands = payload
    metric = scheme.metric
    plan = FailurePlan.uniform_links(
        metric, fraction, seed=derive_seed(MASTER_SEED, "failures")
    )
    degraded = DegradedNetwork.from_plan(metric, plan)
    router = ResilientRouter(scheme, degraded, policy=policy)
    walks = [
        router.route(demand.source, demand.target).path
        for demand in demands
    ]
    routed = sum(
        1
        for demand, walk in zip(demands, walks)
        if walk and walk[-1] == demand.target
    )
    chaos = ChaosNetwork(
        degraded,
        ChaosConfig(loss=loss, jitter=JITTER, corruption=CORRUPTION),
        seed=derive_seed(MASTER_SEED, "chaos"),
    )
    report = TrafficSimulator(scheme).run(
        demands, paths=walks, chaos=chaos, arq=RELIABLE_ARQ
    )
    return [
        graph_name,
        label,
        policy,
        round(routed / len(demands), 4),
        f"{report.delivered}/{report.offered}",
        round(report.delivery_rate(), 4),
        round(report.retransmission_overhead(), 3),
        round(report.goodput(), 4),
    ]


def run_degraded(
    epsilon: float = 0.5,
    pair_count: int = 200,
    fail_fraction: float = 0.10,
    loss: float = 0.05,
    context: Optional[BuildContext] = None,
    jobs: int = 1,
) -> ExperimentTable:
    """Composed regime: stale tables + dead links + lossy channel.

    The routing plane (E16's ``ResilientRouter`` over a
    ``DegradedNetwork``) decides each packet's walk; the transport
    plane (ARQ over ``ChaosNetwork`` wrapping the *degraded* overlay)
    decides whether it survives the channel.  End-to-end delivery is
    the product of the two: a truncated walk counts as undelivered no
    matter how hard the transport retries.
    """
    params = SchemeParameters(epsilon=epsilon)
    if context is None:
        context = BuildContext()
    graph_name, graph = chaos_suite()[0]
    metric = context.metric(graph)
    demands = uniform_demands(
        metric.n,
        pair_count,
        rate=2.0,
        seed=derive_seed(MASTER_SEED, "demands"),
    )
    cells = []
    for scheme_cls, label in TRIO_LINEUP:
        scheme = context.scheme(scheme_cls, metric, params)
        for policy in POLICIES:
            cells.append(
                (
                    graph_name,
                    scheme,
                    label,
                    policy,
                    fail_fraction,
                    loss,
                    demands,
                )
            )
    rows = parallel_map(_degraded_cell, cells, jobs=jobs)
    return ExperimentTable(
        title=(
            f"Composed chaos (E18): {fail_fraction:.0%} links failed + "
            f"{loss:.0%} loss, stale tables, ARQ on, {graph_name}"
        ),
        columns=[
            "graph",
            "scheme",
            "policy",
            "routed",
            "delivered",
            "rate",
            "retx ovh",
            "goodput",
        ],
        rows=rows,
        notes=[
            "routed = fraction of walks that reach the target on the "
            "degraded topology (the routing-plane ceiling on delivery)",
            "the chaos channel wraps the DEGRADED overlay: propagation "
            "is charged at post-failure weights, and faults hit the "
            "detoured links the router actually used",
            "truncated walks never ack, so the sender burns its whole "
            "retry budget on them — the inflated retx overhead under "
            "fail-fast is the cost of pointing ARQ at a routing-plane "
            "black hole, not a transport bug",
        ],
    )


def run_audit(
    epsilon: float = 0.5,
    corrupt_count: int = 6,
    suite: Optional[List[Tuple[str, nx.Graph]]] = None,
) -> ExperimentTable:
    """Detect, quarantine, and heal corrupted routing-table rows.

    Every cell uses a **private** :class:`BuildContext`: the injector
    writes through the metric's internal arrays, and a shared
    content-hash cache must never serve corrupted substrates to other
    experiments.  After healing, :func:`verify_against_cold` asserts
    the scheme routes bit-identically to a from-scratch rebuild.
    """
    params = SchemeParameters(epsilon=epsilon)
    suite = chaos_suite(suite)
    rows: List[List[object]] = []
    for graph_name, graph in suite:
        for scheme_cls, label in TRIO_LINEUP:
            context = BuildContext()
            metric = context.metric(graph)
            scheme = context.scheme(scheme_cls, metric, params)
            auditor = TableAuditor(metric)
            rng = random.Random(
                derive_seed(MASTER_SEED, "corrupt-sample")
            )
            victims = sorted(
                rng.sample(range(metric.n), min(corrupt_count, metric.n))
            )
            injector = CorruptionInjector(
                seed=derive_seed(MASTER_SEED, "corrupt")
            )
            injected = injector.corrupt(metric, victims)
            report = quarantine_and_repair(
                context, auditor, injected=injected
            )
            pairs_checked = verify_against_cold(
                scheme,
                scheme_cls,
                graph,
                params,
                seed=derive_seed(MASTER_SEED, "verify-pairs"),
            )
            rows.append(
                [
                    graph_name,
                    label,
                    len(report.injected),
                    len(report.detected),
                    round(report.detection_rate, 4),
                    report.rows_respliced,
                    "yes" if report.clean_after else "NO",
                    pairs_checked,
                ]
            )
    return ExperimentTable(
        title=(
            "Table-integrity audit (E18): inject, detect, quarantine, "
            f"heal via row splicing ({corrupt_count} nodes per cell)"
        ),
        columns=[
            "graph",
            "scheme",
            "injected",
            "detected",
            "det rate",
            "respliced",
            "clean",
            "cold-identical pairs",
        ],
        rows=rows,
        notes=[
            "detected rows are re-solved in place from the metric's "
            "own edges (BuildContext.repair_rows -> GraphMetric.splice_rows)",
            "cold-identical pairs = routes compared bit-identical "
            "against a cold rebuild after healing "
            "(TableIntegrityError otherwise)",
        ],
    )


def main() -> None:
    run().print()
    run_degraded().print()
    run_audit().print()


if __name__ == "__main__":
    main()
