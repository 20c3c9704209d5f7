"""Benchmark the chaos subsystem (E18).

Reproduces the numbers recorded in ``BENCH_chaos.json``:

* the **loss sweep** — all six schemes on the chaos suite, each loss
  point served twice: fail-fast (no ARQ) and reliability mode (ARQ +
  checksummed headers) — both regimes recorded side by side;
* a **fail-fast loss series** at denser loss points, the raw
  delivery-vs-loss degradation curve;
* the **composed regime** — ``ChaosNetwork`` over ``DegradedNetwork``
  with a ``ResilientRouter`` (stale tables + dead links + lossy
  channel);
* the **table-integrity audit** — corrupt, detect, heal via row
  splicing, verify bit-identical to a cold rebuild.

Every number is deterministic: fault draws are pure functions of each
event's seeded key (see :mod:`repro.chaos.channel`), the other streams
come from ``derive_seed``, and goodput/latency are *simulated* time,
not wall-clock.

Run with ``PYTHONPATH=src python benchmarks/bench_chaos.py`` (writes
``BENCH_chaos.json``).
Pass ``--check`` for the CI variant, which asserts the invariants:

* zero faults + no ARQ => delivery rate exactly 1.0, zero retransmits;
* fail-fast delivery is monotone non-increasing in the loss rate
  (guaranteed by the fixed-seed coupling: each crossing's drop uniform
  is a word of its own key's digest and does not depend on the loss
  rate, so a crossing dropped at one loss rate is dropped at every
  higher one);
* at 5% loss with ARQ, every scheme recovers to >= 0.99 delivery with
  nonzero retransmission overhead and zero undetected corruption,
  while the fail-fast regime is strictly worse;
* injected table corruption is detected on 100% of nodes and healed
  to bit-identity with a cold rebuild.
"""

from __future__ import annotations

import random
import sys

from _runner import run as run_bench

from repro.chaos import ChaosConfig, ChaosNetwork
from repro.chaos.audit import (
    CorruptionInjector,
    TableAuditor,
    quarantine_and_repair,
    verify_against_cold,
)
from repro.core.params import SchemeParameters
from repro.core.seeding import derive_seed
from repro.experiments.chaos import (
    CORRUPTION,
    JITTER,
    MASTER_SEED,
    RELIABLE_ARQ,
    SCHEME_LINEUP,
    run,
    run_audit,
    run_degraded,
)
from repro.experiments.harness import standard_suite
from repro.pipeline.context import BuildContext
from repro.runtime.simulator import TrafficSimulator, uniform_demands
from repro.schemes.nameind_scalefree import ScaleFreeNameIndependentScheme

DEMANDS = 200
FAILFAST_LOSSES = (0.0, 0.05, 0.1, 0.25, 0.5, 0.8)


def _grid_demands(context: BuildContext):
    _, graph = standard_suite("small")[0]
    metric = context.metric(graph)
    demands = uniform_demands(
        metric.n,
        DEMANDS,
        rate=2.0,
        seed=derive_seed(MASTER_SEED, "demands"),
    )
    return metric, demands


def failfast_series(context: BuildContext):
    """Delivery vs loss, one attempt per packet, all six schemes.

    Corruption is held at zero so the zero-loss point is exactly 1.0
    and the whole curve isolates the drop process.
    """
    metric, demands = _grid_demands(context)
    series = {}
    for scheme_cls, label in SCHEME_LINEUP:
        scheme = context.scheme(
            scheme_cls, metric, SchemeParameters(epsilon=0.5)
        )
        sim = TrafficSimulator(scheme)
        points = []
        for loss in FAILFAST_LOSSES:
            chaos = ChaosNetwork(
                metric,
                ChaosConfig(loss=loss),
                seed=derive_seed(MASTER_SEED, "chaos"),
            )
            report = sim.run(demands, chaos=chaos)
            points.append(
                {
                    "loss": loss,
                    "delivery_rate": round(report.delivery_rate(), 4),
                    "goodput": round(report.goodput(), 4),
                }
            )
        series[label] = points
    return series


def measure():
    context = BuildContext()
    return {
        "graph_suite": "standard small minus grid-with-holes (see E18)",
        "demands": DEMANDS,
        "master_seed": MASTER_SEED,
        "jitter": JITTER,
        "corruption": CORRUPTION,
        "arq": {
            "max_retries": RELIABLE_ARQ.max_retries,
            "backoff": RELIABLE_ARQ.backoff,
            "backoff_cap": RELIABLE_ARQ.backoff_cap,
            "checksum_bits": RELIABLE_ARQ.checksum_bits,
        },
        "sweep": run(pair_count=DEMANDS, context=context).to_dict(),
        "failfast_loss_series": failfast_series(context),
        "composed": run_degraded(
            pair_count=150, context=context
        ).to_dict(),
        "audit": run_audit().to_dict(),
    }


def check() -> None:
    """CI invariants (deterministic, no wall-clock assertions)."""
    context = BuildContext()
    metric, demands = _grid_demands(context)
    params = SchemeParameters(epsilon=0.5)
    arq_rates = {}
    for scheme_cls, label in SCHEME_LINEUP:
        scheme = context.scheme(scheme_cls, metric, params)
        sim = TrafficSimulator(scheme)

        # 1. Faultless channel, no ARQ: nothing may be lost or resent.
        calm = sim.run(
            demands,
            chaos=ChaosNetwork(
                metric, seed=derive_seed(MASTER_SEED, "chaos")
            ),
        )
        assert calm.delivery_rate() == 1.0, (
            f"{label}: zero-loss delivery {calm.delivery_rate()} != 1.0"
        )
        assert calm.retransmissions() == 0, (
            f"{label}: retransmissions on a faultless channel"
        )
        assert calm.retransmission_overhead() == 0.0, (
            f"{label}: overhead on a faultless channel"
        )

        # 2. Fail-fast delivery is monotone non-increasing in loss.
        rates = []
        for loss in FAILFAST_LOSSES:
            chaos = ChaosNetwork(
                metric,
                ChaosConfig(loss=loss),
                seed=derive_seed(MASTER_SEED, "chaos"),
            )
            rates.append(sim.run(demands, chaos=chaos).delivery_rate())
        assert rates[0] == 1.0, f"{label}: rate at loss 0 is {rates[0]}"
        assert all(a >= b for a, b in zip(rates, rates[1:])), (
            f"{label}: delivery not monotone vs loss: {rates}"
        )

        # 3. ARQ at 5% loss (plus jitter and corruption) recovers to
        #    >= 0.99 with real retransmission work and no undetected
        #    corruption; fail-fast at the same point is strictly worse.
        stressed = ChaosConfig(
            loss=0.05, jitter=JITTER, corruption=CORRUPTION
        )
        reliable = sim.run(
            demands,
            chaos=ChaosNetwork(
                metric, stressed, seed=derive_seed(MASTER_SEED, "chaos")
            ),
            arq=RELIABLE_ARQ,
        )
        failfast = sim.run(
            demands,
            chaos=ChaosNetwork(
                metric, stressed, seed=derive_seed(MASTER_SEED, "chaos")
            ),
        )
        arq_rates[label] = reliable.delivery_rate()
        assert reliable.delivery_rate() >= 0.99, (
            f"{label}: ARQ delivery {reliable.delivery_rate()} < 0.99"
        )
        assert reliable.retransmissions() > 0, (
            f"{label}: ARQ reported no retransmissions at 5% loss"
        )
        assert reliable.retransmission_overhead() > 0.0, (
            f"{label}: ARQ overhead is zero at 5% loss"
        )
        assert reliable.corrupt_undetected() == 0, (
            f"{label}: single-bit corruption slipped past the CRC"
        )
        assert failfast.delivery_rate() < reliable.delivery_rate(), (
            f"{label}: fail-fast {failfast.delivery_rate()} not worse "
            f"than ARQ {reliable.delivery_rate()}"
        )

    # 4. Table corruption: 100% detection, healed via row splicing,
    #    bit-identical to a cold rebuild afterwards.
    audit_context = BuildContext()
    _, graph = standard_suite("small")[0]
    audit_metric = audit_context.metric(graph)
    scheme = audit_context.scheme(
        ScaleFreeNameIndependentScheme, audit_metric, params
    )
    auditor = TableAuditor(audit_metric)
    rng = random.Random(derive_seed(MASTER_SEED, "corrupt-sample"))
    victims = sorted(rng.sample(range(audit_metric.n), 6))
    injected = CorruptionInjector(
        seed=derive_seed(MASTER_SEED, "corrupt")
    ).corrupt(audit_metric, victims)
    report = quarantine_and_repair(
        audit_context, auditor, injected=injected
    )
    assert report.detection_rate == 1.0, (
        f"detected {report.detected} of injected {report.injected}"
    )
    assert report.clean_after, "re-audit after row splicing not clean"
    pairs = verify_against_cold(
        scheme,
        ScaleFreeNameIndependentScheme,
        graph,
        params,
        seed=derive_seed(MASTER_SEED, "verify-pairs"),
    )
    assert pairs > 0
    print("bench_chaos --check: all invariants hold")
    print(
        "  ARQ delivery at 5% loss:",
        {k: round(v, 4) for k, v in arq_rates.items()},
    )


if __name__ == "__main__":
    sys.exit(run_bench(measure, check, output="BENCH_chaos.json"))
