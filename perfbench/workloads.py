"""The benchmark's workloads and the pass that measures one of them.

A *pass* is one interpreter's worth of work on one workload:

1. **set up** — generated graph -> ``BuildContext.metric`` -> scheme ->
   ``BuildContext.compiled``, through a fresh context each time;
2. **serve** in rounds, each running a few closed-loop
   ``BatchRouter.route_arrays`` batches (one caller, 2048 seeded
   uniform pairs), ``scheme.route()`` on seeded pairs, and one
   ``TrafficSimulator.run`` over seeded demands (under ``ChaosNetwork``
   faults with ARQ where the scheme has a header codec);
3. **evaluate** stretch on a fixed pair sample;
4. **churn** (churn workload only) — ``ChurnDriver.run``, after which the
   warm tables are compared with a cold rebuild;
5. **check** — engine against interpreter, bit for bit; every delivered
   node is the requested one; no packet lost and no header corruption
   undetected.  Every failed operation is counted, never dropped.

A *timed* pass sets up several times and serves until ``seconds`` have
passed.  A *fixed* pass (the traced pass and its untraced reference)
sets up once and serves PREFIX_ROUNDS rounds, so every count it reports
repeats exactly for a seed.  The graph of a workload is fixed; the seed
feeds the pairs, demands, fault draws and edit stream.

Every timing of a timed pass is scaled to a quiet host by
:class:`HostSpeed`, measured next to it.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

from repro import (
    BuildContext,
    ReproError,
    RouteResult,
    ScaleFreeNameIndependentScheme,
    SchemeParameters,
    SimpleNameIndependentScheme,
)
from repro.chaos.channel import ChaosConfig, ChaosNetwork
from repro.chaos.protocol import ArqConfig
from repro.churn.driver import ChurnDriver
from repro.core.seeding import derive_seed
from repro.engine import BatchRouter, EngineError
from repro.graphs.generators import grid_2d, preferential_attachment, random_geometric
from repro.pipeline.sampling import sample_ordered_pairs
from repro.runtime.simulator import TrafficSimulator, uniform_demands
from repro.schemes.landmark_nameind import LandmarkNameIndependentScheme

#: Pairs per engine batch (one closed-loop caller).
BATCH = 2048
#: A timed pass runs at least this many engine batches, so at least
#: ten lie beyond the 90th-percentile batch latency it records.
MIN_BATCHES = 100
#: Serving rounds of a fixed pass (the prefix of every timed pass).
PREFIX_ROUNDS = 4
#: Seed of the stretch evaluation sample: the same pairs on every run,
#: so the stretch metrics move only when the tables do.
EVAL_SEED = 0
CHAOS = ChaosConfig(loss=0.01, jitter=0.5, corruption=0.005)
ARQ = ArqConfig(max_retries=128)
_SIM_COUNTS = (
    "offered",
    "delivered",
    "transmissions",
    "retransmissions",
    "duplicates",
    "corrupt_detected",
    "corrupt_undetected",
)
#: Pairs routed warm and cold after churn.
VERIFY_PAIRS = 40
_FAILURES = (ReproError, EngineError)


class HostFactors(NamedTuple):
    """How much slower than on a quiet host each HostSpeed kernel ran."""

    python: float
    numpy: float


#: Times of the two HostSpeed kernels between serving loops on a quiet
#: host (2-vCPU Intel Xeon VM at 2.1 GHz nominal, Python 3.11, NumPy
#: 2.4).  They only set the scale of the scaled timings.
REFERENCE_S = HostFactors(python=0.0034, numpy=0.0020)


class HostSpeed:
    """How much slower than a quiet host the host runs fixed code now.

    Other tenants of a shared host slow every program on it by up to
    ~1.7x, in bursts of seconds and in phases that last minutes, so a
    whole run can land in a slow phase.  Two fixed kernels of benchmark
    code that the library never runs are timed right before each
    measurement: an interpreted loop over dicts and lists, which slows
    like ``scheme.route()`` does, and small NumPy operations on a
    batch-sized array, which slow like an engine sweep and the
    simulator do.  :meth:`factors` gives each kernel's time over its
    REFERENCE_S.  A rate times its factor, or a duration divided by
    it, is what the program would show on the quiet host.  No change
    to the library moves the factors, so the scaled numbers still
    compare commits.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = [int(k) for k in rng.integers(0, 4096, 40_000)]
        self._table = {k: [k, (k * 7919) % 4096] for k in range(4096)}
        self._perm = rng.permutation(BATCH)
        self._values = rng.random(BATCH)
        self.factors()  # first run pays for cold caches

    def _python(self) -> int:
        table = self._table
        hops = []
        for key in self._keys:
            entry = table[key]
            if entry[1] > key:
                hops.append(entry[0])
        return len(hops)

    def _numpy(self) -> float:
        x = self._values
        perm = self._perm
        for _ in range(120):
            x = np.where(x[perm] > 0.5, x * 0.5, x + 0.25)
        return float(x.sum())

    def factors(self, repeats: int = 1) -> HostFactors:
        """Each kernel's median time of ``repeats`` runs over REFERENCE_S."""
        python, numpy = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            self._python()
            middle = time.perf_counter()
            self._numpy()
            python.append(middle - start)
            numpy.append(time.perf_counter() - middle)
        return HostFactors(
            statistics.median(python) / REFERENCE_S.python,
            statistics.median(numpy) / REFERENCE_S.numpy,
        )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: a graph, a scheme, and how much to run."""

    name: str
    why: str
    graph: Callable[[], nx.Graph]
    scheme_cls: type
    params: SchemeParameters
    #: Set-ups per timed pass (setup_s is their median).
    setup_repeats: int
    #: Pairs of the stretch evaluation sample.
    eval_pairs: int
    #: Work per serving round: engine batches, interpreter pairs, and
    #: simulated demands.
    round_batches: int
    round_pairs: int
    round_demands: int
    #: Edits committed by ChurnDriver (0: no churn phase).
    churn_edits: int = 0
    #: Simulate under chaos faults with ARQ; schemes without a header
    #: codec cannot, and run the plain store-and-forward simulator.
    arq: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="landmark-pa10k",
            why="landmark scheme at n = 10^4 on a power-law graph: lazy metric, row "
            "working set far beyond the LRU; setup is almost all metric queries",
            graph=lambda: preferential_attachment(10_000, m=2),
            scheme_cls=LandmarkNameIndependentScheme,
            params=SchemeParameters(),
            setup_repeats=2,
            eval_pairs=300,
            round_batches=4,
            round_pairs=20,
            round_demands=10,
            arq=False,
        ),
        Workload(
            name="thm14-geo1k",
            why="Theorem 1.4 on a doubling geometric graph (n = 1024): hierarchy, "
            "search trees and the dense next-hop compile; rows fit the LRU",
            graph=lambda: random_geometric(1024, seed=11),
            scheme_cls=SimpleNameIndependentScheme,
            params=SchemeParameters(epsilon=0.5),
            setup_repeats=2,
            eval_pairs=400,
            round_batches=3,
            round_pairs=300,
            round_demands=25,
        ),
        Workload(
            name="churn-thm11-grid16",
            why="Theorem 1.1 on a 16x16 grid (dense metric) under ChurnDriver edits: "
            "row splicing and partial rebuilds while stale tables keep routing",
            graph=lambda: grid_2d(16),
            scheme_cls=ScaleFreeNameIndependentScheme,
            params=SchemeParameters(epsilon=0.5),
            setup_repeats=5,
            eval_pairs=300,
            round_batches=3,
            round_pairs=120,
            round_demands=25,
            churn_edits=30,
        ),
    )
}


@dataclasses.dataclass
class PassResult:
    """Everything one pass measured."""

    #: End-to-end metric values (meaningful for timed passes).
    metrics: Dict[str, float]
    #: Counts that repeat exactly for a seed on a fixed pass.
    counts: Dict[str, Any]
    #: Counters behind the per-layer metrics.
    layer: Dict[str, float]
    #: Sample sizes and spreads behind the metrics.
    info: Dict[str, Any]
    attempted: int
    failed: int
    failures: List[str]
    wall_s: float


class _Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(reason)


def _set_up(workload: Workload) -> Tuple[nx.Graph, BuildContext, Any, Any, Any, float]:
    """Generated graph -> servable tables through one fresh context."""
    graph = workload.graph()
    start = time.perf_counter()
    context = BuildContext()
    metric = context.metric(graph)
    scheme = context.scheme(workload.scheme_cls, metric, workload.params)
    tables = context.compiled(scheme)
    return graph, context, metric, scheme, tables, time.perf_counter() - start


def _route(scheme, u: int, v: int, ledger: _Ledger) -> Optional[RouteResult]:
    try:
        result = scheme.route(u, v)
    except _FAILURES as exc:
        ledger.record(1, 1, f"route {u}->{v} raised {exc!r}")
        return None
    wrong = result.target != v
    ledger.record(1, int(wrong), f"route {u}->{v} delivered to {result.target}")
    return None if wrong else result


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run_pass(workload: Workload, seed: int, seconds: float, timed: bool) -> PassResult:
    """Run one pass of ``workload``; see the module docstring."""
    wall_start = time.perf_counter()
    ledger = _Ledger()
    counts: Dict[str, Any] = {}
    layer: Dict[str, float] = {}
    info: Dict[str, Any] = {}
    speed = HostSpeed()

    # -- set up ---------------------------------------------------------
    setup_samples = []
    setup_factors = []
    built = None
    for _ in range(workload.setup_repeats if timed else 1):
        built = None
        gc.collect()
        before = speed.factors(repeats=5)
        built = _set_up(workload)
        factor = statistics.fmean(before + speed.factors(repeats=5))
        setup_samples.append(built[-1] / factor)
        setup_factors.append(factor)
    graph, context, metric, scheme, tables, _ = built
    n = metric.n
    counts["setup_rows_materialized"] = context.substrate_stats()["rows_materialized"]
    counts["setup_built"] = sum(context.stats.misses.values())
    info["setup_s_samples"] = setup_samples
    info["setup_host_factors"] = setup_factors
    layer["engine.compiled_mb"] = tables.nbytes() / 2**20

    # -- serve: interleaved rounds ---------------------------------------
    served = _serve(workload, seed, seconds, timed, metric, scheme, tables, ledger, speed)
    latencies = served["latencies"]
    counts["engine_sweeps"] = served["sweeps"][: PREFIX_ROUNDS * workload.round_batches]
    layer["engine.sweeps_per_batch"] = statistics.fmean(served["sweeps"])
    layer["engine.sweeps_max"] = max(served["sweeps"])
    totals = served["sim"]
    counts["sim"] = dict(totals)
    for key in ("transmissions", "retransmissions", "duplicates"):
        layer[f"runtime.{key}"] = totals[key]
    for key in ("corrupt_detected", "corrupt_undetected"):
        layer[f"chaos.{key}"] = totals[key]
    info["rounds"] = served["rounds"]
    info["engine_batches"] = len(latencies)

    # -- stretch on the evaluation sample; engine == interpreter -------
    evaluation = sample_ordered_pairs(n, workload.eval_pairs, seed=EVAL_SEED)
    results = [_route(scheme, u, v, ledger) for u, v in evaluation]
    stretches = [r.stretch for r in results if r is not None]
    _check_engine(
        tables, metric, evaluation + served["pairs"], results + served["results"], ledger
    )

    # -- churn ----------------------------------------------------------
    if workload.churn_edits:
        _churn(workload, seed, graph, context, ledger, counts, layer)

    # -- per-layer counters of the whole pass ---------------------------
    gc.collect()  # only live metrics count in substrate_stats
    substrate = context.substrate_stats()
    lookups = substrate["row_hits"] + substrate["row_misses"]
    layer["metric.rows_materialized"] = substrate["rows_materialized"]
    layer["metric.row_misses"] = substrate["row_misses"]
    layer["metric.row_hit_rate"] = substrate["row_hits"] / lookups if lookups else 0.0
    layer["metric.evictions"] = substrate["evictions"]
    built_total = sum(context.stats.misses.values())
    reused_total = sum(context.stats.hits.values())
    layer["pipeline.built"] = built_total
    layer["pipeline.reused"] = reused_total
    layer["pipeline.reuse_ratio"] = reused_total / max(1, built_total + reused_total)
    counts["substrate"] = {k: int(v) for k, v in substrate.items()}
    counts["built"] = built_total
    counts["reused"] = reused_total

    bits = scheme.table_bits_vector()
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(),
        "engine_routes_per_s": statistics.median(served["engine_rates"]),
        "engine_batch_p50_ms": 1e3 * statistics.median(latencies),
        "interp_routes_per_s": statistics.median(served["interp_rates"]),
        "sim_packets_per_s": statistics.median(served["sim_rates"]),
        "delivery_rate": totals["delivered"] / totals["offered"],
        "mean_stretch": statistics.fmean(stretches),
        "max_stretch": max(stretches),
        "table_bits_mean": statistics.fmean(bits),
        "table_bits_max": float(max(bits)),
        "header_bits": float(scheme.header_bits()),
    }
    for key in ("delivery_rate", "mean_stretch", "max_stretch", "table_bits_mean",
                "table_bits_max", "header_bits"):
        counts[key] = metrics[key]
    for key in ("engine_rates", "interp_rates", "sim_rates"):
        info[f"{key}_quartiles"] = _quartiles(served[key])
    for kind in HostFactors._fields:
        info[f"host_{kind}_factor_quartiles"] = _quartiles(
            [getattr(f, kind) for f in served["host_factors"]]
        )
    for key, values in served["unscaled"].items():
        info[f"unscaled_{key}_quartiles"] = _quartiles(values)
    info["engine_batch_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    info["setup_s_quartiles"] = _quartiles(setup_samples)
    info["engine_batch_ms_quartiles"] = [1e3 * q for q in _quartiles(latencies)]
    return PassResult(
        metrics=metrics,
        counts=counts,
        layer=layer,
        info=info,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.reasons,
        wall_s=time.perf_counter() - wall_start,
    )


def _serve(
    workload: Workload,
    seed: int,
    seconds: float,
    timed: bool,
    metric,
    scheme,
    tables,
    ledger: _Ledger,
    speed: HostSpeed,
) -> Dict[str, Any]:
    """Serving rounds: engine batches, interpreter routes, one simulation.

    Interleaving the three loops spreads each over the whole serving
    window.  The HostSpeed kernels are timed right before each loop,
    since contention changes within a round; the NumPy factor scales
    the engine's rate and batch latencies and the simulator's rate, the
    interpreted one the interpreter's rate.  A fixed pass
    runs PREFIX_ROUNDS rounds; a timed pass keeps going until ``seconds``
    have passed and at least MIN_BATCHES engine batches have run.
    """
    n = metric.n
    router = BatchRouter(tables)
    simulator = TrafficSimulator(scheme)
    out: Dict[str, Any] = {
        "latencies": [],
        "sweeps": [],
        "engine_rates": [],
        "interp_rates": [],
        "sim_rates": [],
        "host_factors": [],
        "unscaled": {"engine_rates": [], "interp_rates": [], "sim_rates": []},
        "pairs": [],
        "results": [],
        "sim": dict.fromkeys(_SIM_COUNTS, 0),
    }

    def record_rate(key: str, work: int, spent: float, factor: float) -> None:
        out[key].append(work / spent * factor)
        out["unscaled"][key].append(work / spent)

    def host_factors() -> HostFactors:
        factors = speed.factors()
        out["host_factors"].append(factors)
        return factors

    start = time.perf_counter()
    rounds = 0
    while rounds < PREFIX_ROUNDS or (
        timed
        and (
            time.perf_counter() - start < seconds
            or len(out["latencies"]) < MIN_BATCHES
        )
    ):
        prefix = rounds < PREFIX_ROUNDS
        # Engine: closed loop, one caller.
        factor = host_factors().numpy
        routed = 0
        spent = 0.0
        for k in range(workload.round_batches):
            rng = np.random.default_rng([seed, rounds, k])
            src = rng.integers(0, n, BATCH)
            tgt = (src + rng.integers(1, n, BATCH)) % n
            began = time.perf_counter()
            try:
                result = router.route_arrays(src, tgt)
            except EngineError as exc:
                ledger.record(BATCH, BATCH, f"engine batch raised {exc!r}")
                continue
            elapsed = time.perf_counter() - began
            out["latencies"].append(elapsed / factor)
            out["sweeps"].append(int(result["sweeps"]))
            routed += BATCH
            spent += elapsed
            wrong = int(np.count_nonzero(result["target"] != tgt))
            ledger.record(BATCH, wrong, f"engine: {wrong} of {BATCH} misdelivered")
        if spent:
            record_rate("engine_rates", routed, spent, factor)

        # Interpreter: scheme.route() on seeded pairs.
        pairs = sample_ordered_pairs(
            n, workload.round_pairs, seed=derive_seed(seed, "perfbench-interp", rounds)
        )
        factor = host_factors().python
        began = time.perf_counter()
        results =[_route(scheme, u, v, ledger) for u, v in pairs]
        record_rate("interp_rates", len(pairs), time.perf_counter() - began, factor)
        if prefix:
            out["pairs"].extend(pairs)
            out["results"].extend(results)

        # Simulator: chaos faults + ARQ (plain store-and-forward without).
        demands = uniform_demands(
            n, workload.round_demands, seed=derive_seed(seed, "perfbench-sim", rounds)
        )
        chaos = None
        if workload.arq:
            chaos = ChaosNetwork(
                metric, CHAOS, seed=derive_seed(seed, "perfbench-chaos", rounds)
            )
        rounds += 1
        factor = host_factors().numpy
        began = time.perf_counter()
        try:
            report = simulator.run(demands, chaos=chaos, arq=ARQ if chaos else None)
        except _FAILURES as exc:
            ledger.record(len(demands), len(demands), f"simulation raised {exc!r}")
            continue
        record_rate("sim_rates", report.offered, time.perf_counter() - began, factor)
        misdelivered = sum(
            1 for p in report.packets if p.physical_nodes[-1] != p.demand.target
        )
        lost = report.offered - report.delivered
        undetected = report.corrupt_undetected()
        ledger.record(
            report.offered,
            min(report.offered, misdelivered + lost + undetected),
            f"simulation: {misdelivered} misdelivered, {lost} lost, "
            f"{undetected} corrupt headers undetected",
        )
        if prefix:
            for key, value in zip(
                _SIM_COUNTS,
                (
                    report.offered,
                    report.delivered,
                    report.total_transmissions(),
                    report.retransmissions(),
                    report.duplicate_deliveries(),
                    report.corrupt_detected(),
                    undetected,
                ),
            ):
                out["sim"][key] += value
    out["rounds"] = rounds
    return out


def _check_engine(tables, metric, pairs, results, ledger: _Ledger) -> None:
    """Replay ``pairs`` on the engine; each result must equal the
    interpreter's bit for bit (path, cost, legs, header bits)."""
    checker = BatchRouter(tables, metric=metric)
    try:
        replayed = checker.route_batch([u for u, _ in pairs], [v for _, v in pairs])
    except EngineError as exc:
        ledger.record(len(pairs), len(pairs), f"engine replay raised {exc!r}")
        return
    mismatched = [
        pair
        for pair, mine, reference in zip(pairs, replayed, results)
        if reference is not None and mine != reference
    ]
    ledger.record(
        len(pairs), len(mismatched), f"engine differs from interpreter on {mismatched[:3]}"
    )


def _churn(
    workload: Workload,
    seed: int,
    graph: nx.Graph,
    context: BuildContext,
    ledger: _Ledger,
    counts: Dict[str, Any],
    layer: Dict[str, float],
) -> None:
    """Drive the set-up tables through the edit stream, then check the
    warm tables against a cold rebuild of the final graph."""
    driver = ChurnDriver(
        graph,
        workload.scheme_cls,
        policy="local-detour",
        params=workload.params,
        context=context,
        seed=seed,
        edits_per_round=2,
        pairs_per_round=20,
        verify_every=0,
    )
    start = time.perf_counter()
    report = driver.run(edits=workload.churn_edits)
    churn_s = time.perf_counter() - start
    edits = [edit for r in report.rounds for edit in r.edits]
    layer["churn.edits"] = report.total_edits
    layer["churn.rounds"] = len(report.rounds)
    layer["churn.edits_per_s"] = report.total_edits / churn_s
    layer["metric.dirty_rows"] = sum(len(e.dirty) for e in edits)
    layer["metric.rows_reused"] = sum(e.rows_reused for e in edits)
    layer["pipeline.full_rebuilds"] = sum(1 for e in edits if e.full_rebuild)
    layer["resilience.detours"] = sum(
        round(r.mean_detours * r.demand_count) for r in report.rounds
    )
    layer["resilience.delivery_rate"] = report.mean_delivery_rate()
    counts["churn"] = {
        "built": report.total_built,
        "reused": report.total_reused,
        "dirty_rows": layer["metric.dirty_rows"],
        "final_nodes": report.final_nodes,
        "stale_stretch": report.mean_stretch(),
    }

    # Outside the timed loop: warm tables against a cold rebuild.
    warm = context.scheme(workload.scheme_cls, context.metric(graph), workload.params)
    cold_context = BuildContext()
    cold = cold_context.scheme(
        workload.scheme_cls, cold_context.metric(graph.copy()), workload.params
    )
    same_bits = warm.table_bits_vector() == cold.table_bits_vector()
    ledger.record(1, int(not same_bits), "churn: table bits differ from a cold rebuild")
    pairs = sample_ordered_pairs(
        warm.metric.n, VERIFY_PAIRS, seed=derive_seed(seed, "perfbench-verify")
    )
    for u, v in pairs:
        try:
            same = warm.route(u, v) == cold.route(u, v)
        except _FAILURES as exc:
            ledger.record(1, 1, f"churn check {u}->{v} raised {exc!r}")
            continue
        ledger.record(1, int(not same), f"churn: warm route {u}->{v} differs from cold")
