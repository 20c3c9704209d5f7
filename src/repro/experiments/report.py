"""Generate EXPERIMENTS.md: the paper-vs-measured record for E1-E10.

Run:  python -m repro.experiments.report [output-path]

Runs every experiment at the documentation scale and writes a Markdown
record pairing each paper artifact (table, figure, theorem) with the
measured outcome and a short pass/fail interpretation.  CI-grade checks
of the same facts live in tests/ and benchmarks/; this module exists so
the committed EXPERIMENTS.md is regenerable from one command.
"""

from __future__ import annotations

import sys
from typing import List

from typing import Optional

from repro.experiments import ablation, congestion, fig1, fig2, fig3
from repro.experiments import related_work, relaxed, resilience, scalefree
from repro.experiments import storage_audit, structures, sweeps
from repro.experiments import table1, table2
from repro.experiments import chaos as chaos_experiment
from repro.experiments import churn as churn_experiment
from repro.experiments import scale as scale_experiment
from repro.experiments import throughput as throughput_experiment
from repro.experiments.harness import ExperimentTable
from repro.pipeline.context import BuildContext


def _block(table: ExperimentTable) -> str:
    return "```\n" + table.formatted() + "\n```\n"


def generate(
    pair_count: int = 300,
    context: Optional[BuildContext] = None,
    jobs: int = 1,
    provenance: bool = False,
) -> str:
    """Build the full EXPERIMENTS.md content (runs every experiment).

    One shared :class:`BuildContext` feeds every experiment, so the
    suite's metrics, hierarchies, packings, pair samples, and schemes
    are each built once for the whole report.  ``jobs`` parallelizes
    the medium-scale table cells (the dominant single block); the
    small-scale experiments stay serial to maximize sharing.

    With ``provenance=True``, an appendix records where the build time
    went (per-artifact-kind seconds and cache counters from the shared
    context) and one example route-decision trace per scheme, so the
    report carries its own audit trail.
    """
    if context is None:
        context = BuildContext()
    sections: List[str] = []
    sections.append(
        "# EXPERIMENTS — paper vs measured\n\n"
        "Regenerate with `python -m repro.experiments.report`.  Every\n"
        "experiment is deterministic (fixed seeds).  The paper states\n"
        "asymptotic bounds; the *measured* columns below are concrete\n"
        "bits/stretch under the charging model described in README.md.\n"
    )

    t1 = table1.run(epsilon=0.5, pair_count=pair_count, context=context)
    sections.append(
        "## E1 — Table 1 (name-independent schemes)\n\n"
        "**Paper:** Theorem 1.4 routes with stretch `9+ε` using\n"
        "`(1/ε)^O(α) log Δ log n`-bit tables and `O(log n)`-bit headers;\n"
        "Theorem 1.1 keeps the stretch with `(1/ε)^O(α) log³ n`-bit\n"
        "tables and `O(log²n/log log n)`-bit headers.\n\n"
        "**Measured (ε = 0.5):**\n\n" + _block(t1) +
        "\n**Reading:** both compact schemes stay inside `9 + 8ε`; table\n"
        "sizes are a few kilobits regardless of family, versus the\n"
        "baseline's `Θ(n log n)` (which overtakes them as `n` grows —\n"
        "see E8).  Header ordering matches the paper: Theorem 1.1 pays\n"
        "a larger header than Theorem 1.4 for scale-freeness.\n"
    )

    t2 = table2.run(epsilon=0.5, pair_count=pair_count, context=context)
    sections.append(
        "## E2 — Table 2 (labeled schemes)\n\n"
        "**Paper:** `(1+ε)`-stretch labeled routing; both our Lemma 3.1\n"
        "implementation and Theorem 1.2 use optimal `⌈log n⌉`-bit\n"
        "labels; Theorem 1.2 removes the `log Δ` table factor.\n\n"
        "**Measured (ε = 0.5):**\n\n" + _block(t2) +
        "\n**Reading:** stretch stays within `1 + 8ε` everywhere; labels\n"
        "are exactly `⌈log n⌉` bits.  On these small-`Δ` families the\n"
        "non-scale-free tables are *smaller* — exactly the paper's\n"
        "remark that Theorem 1.4/Lemma 3.1 win when `Δ` is polynomial\n"
        "in `n`; E6 shows the reversal when `Δ` grows.\n"
    )

    f1 = fig1.run(epsilon=0.5, pair_count=pair_count // 2, context=context)
    f1sf = fig1.run_scalefree(
        epsilon=0.5, pair_count=pair_count // 2, context=context
    )
    sections.append(
        "## E3 — Figure 1 (name-independent route anatomy)\n\n"
        "**Paper:** Algorithm 3 alternates zooming-sequence legs with\n"
        "search-tree round trips; Lemma 3.4's arithmetic (Eqn. 4-6)\n"
        "charges the bulk of the `9+O(ε)` stretch to the searches.\n\n"
        "**Measured (Theorem 1.4 / Theorem 1.1):**\n\n"
        + _block(f1) + "\n" + _block(f1sf) +
        "\n**Reading:** the search phase carries ~55-60% of the route\n"
        "cost and dominates the zoom phase by ~6x, the shape Eqn. 6\n"
        "(`8(1/ε+1)/(1/ε−2)` search term vs `1·d` direct term)\n"
        "predicts.\n"
    )

    f2 = fig2.run(epsilon=0.5, pair_count=pair_count // 2, context=context)
    sections.append(
        "## E4 — Figure 2 (labeled route anatomy)\n\n"
        "**Paper:** Algorithm 5's ring walk does almost all the work;\n"
        "the Voronoi-center detour and search are `O(ε)·d(u,v)`\n"
        "(Claim 4.6, Lemma 4.7); Lemma 4.5 guarantees the search never\n"
        "misses.\n\n**Measured (Theorem 1.2):**\n\n" + _block(f2) +
        "\n**Reading:** on small-`Δ` families the walk alone delivers\n"
        "(the Voronoi phase is exercised on the exponential-weight\n"
        "family); zero Lemma 4.5 fallbacks everywhere.\n"
    )

    c1 = fig3.run_construction(epsilons=[2.0, 4.0, 6.0], n=768)
    c2 = fig3.run_counting()
    c3 = fig3.run_adversary(epsilon=6.0, n=384, namings=4,
                            routes_per_naming=25)
    sections.append(
        "## E5 — Figure 3 + Theorem 1.3 (lower bound)\n\n"
        "**Paper:** the spoke-tree `G(ε,n)` has `n` nodes, diameter\n"
        "`O(2^{1/ε} n)`, doubling dimension `≤ 6 − log ε` (Lemma 5.8),\n"
        "and forces stretch `≥ 9 − ε` on any name-independent scheme\n"
        "with `o(n^{(ε/60)²})`-bit tables.\n\n**Measured:**\n\n"
        + _block(c1) + "\n" + _block(c2) + "\n" + _block(c3) +
        "\n**Reading:** construction invariants hold exactly (node\n"
        "count, diameter bound; the greedy dimension estimate sits at\n"
        "or within +1 of the analytic bound, as expected of an upper\n"
        "estimator).  The counting-side claims (5.10 base, 5.11\n"
        "averaging) verify exactly across ε.  Routing the paper's own\n"
        "Theorem 1.4 scheme on the tree lands inside the\n"
        "`[9−ε′, 9+O(ε)]` window — the squeeze the two theorems pin\n"
        "down.\n"
    )

    e6 = scalefree.run(n=20, bases=[1.5, 2.0, 4.0, 8.0], context=context)
    sections.append(
        "## E6 — scale-free ablation (Theorem 1.1/1.2 vs 1.4/Lemma 3.1)\n\n"
        "**Paper:** the non-scale-free schemes store one level per\n"
        "power of two of `Δ`; the scale-free schemes replace them with\n"
        "`log n + 1` ball packings.\n\n**Measured (fixed n = 20):**\n\n"
        + _block(e6) +
        "\n**Reading:** as `log Δ` grows ~4.5x the Theorem 1.4 tables\n"
        "grow ~3x and Lemma 3.1's ~3x, while Theorems 1.1/1.2 stay\n"
        "flat — the headline SODA-2007 result.\n"
    )

    e7 = sweeps.run_stretch_sweep(pair_count=pair_count, context=context)
    sections.append(
        "## E7 — stretch vs ε (Theorems 1.1, 1.2, 1.4)\n\n"
        "**Measured (8x8 grid):**\n\n" + _block(e7) +
        "\n**Reading:** labeled stretch degrades linearly in ε inside\n"
        "the `1+8ε` envelope; name-independent stretch stays inside\n"
        "Lemma 3.4's exact envelope `1 + 8(1/ε+1)/(1/ε−2)` for\n"
        "ε < 1/2.\n"
    )

    e8 = sweeps.run_storage_scaling(context=context)
    sections.append(
        "## E8 — storage vs n (Theorems 1.1, 1.2)\n\n"
        "**Measured (geometric graphs):**\n\n" + _block(e8) +
        "\n**Reading:** an 8x increase in `n` grows compact tables\n"
        "~3-5x — consistent with polylog scaling, far from the 8x of\n"
        "linear tables; labels are exactly `⌈log n⌉` bits.\n"
    )

    e9 = structures.run(context=context)
    sections.append(
        "## E9 — substrate lemma audit (Lemmas 2.2/2.3, Eqn. 3, "
        "Claim 3.9)\n\n**Measured:**\n\n" + _block(e9) +
        "\n**Reading:** the Packing Lemma holds exactly on every\n"
        "family; search-tree heights respect `(1+ε)r`; per-node H-link\n"
        "counts stay within Claim 3.9's `4 log n`.\n"
    )

    sections.append(
        "## E10 — lower-bound arithmetic grid\n\n"
        "`benchmarks/bench_lowerbound.py` sweeps ε over (0, 7.8) in\n"
        "steps of 0.1 and checks, for each: the `9−ε` bound, Claim\n"
        "5.10's base case, Claim 5.11's averaging inequality, and\n"
        "Lemma 5.4's pigeonhole count (log-space).  All 77 ε values\n"
        "pass; see bench output.  One paper constant needed explicit\n"
        "slack: `pq < (60/ε)²` fails by <2% at isolated ε (e.g.\n"
        "ε ≈ 2.664) when the ceilings are taken literally — recorded\n"
        "in `repro.lowerbound.counting`.\n"
    )

    rw = related_work.run(epsilon=0.5, pair_count=pair_count, context=context)
    sections.append(
        "## E13 — related work (§1.2): general-graph landmark routing\n\n"
        "**Paper context:** on general graphs stretch < 3 needs\n"
        "`Ω(√n)`-bit tables; Cowen's landmark scheme is the classic\n"
        "stretch-3 point.  Restricting to doubling metrics buys\n"
        "`1 + ε` with polylog tables.\n\n**Measured:**\n\n" + _block(rw) +
        "\n**Reading:** the landmark baseline respects (and on easy\n"
        "inputs beats) its stretch-3 guarantee but cannot *guarantee*\n"
        "better; Theorem 1.2 guarantees `1+O(ε)` on these families.\n"
    )

    a1 = ablation.run_tree_router(pair_count=pair_count // 2, context=context)
    a2 = ablation.run_ring_restriction(context=context)
    a3 = ablation.run_packing_service(context=context)
    sections.append(
        "## E14 — ablations of the design choices (DESIGN.md)\n\n"
        "**A1, Lemma 4.1 substrate** — DFS-interval vs heavy-path tree\n"
        "routing inside Theorem 1.2:\n\n" + _block(a1) +
        "\n**A2, the `R(u)` ring restriction** — entries stored vs the\n"
        "all-levels (Lemma 3.1) layout as `Δ` grows:\n\n" + _block(a2) +
        "\n**A3, packed-ball service in Theorem 1.1** — share of\n"
        "`(i, u)` levels served by `H(u,i)` links vs own trees:\n\n"
        + _block(a3) +
        "\n**Reading:** A1 — identical stretch, storage/header trade\n"
        "as designed.  A2 — the savings factor grows linearly with\n"
        "`log Δ`: this is the scale-free mechanism, isolated.  A3 —\n"
        "the ball packings absorb the large search balls at every ε,\n"
        "within Claim 3.9's link budget.\n"
    )

    e11 = congestion.run(packet_count=pair_count // 2, context=context)
    sections.append(
        "## E11 — routing under load (beyond the paper)\n\n"
        "Store-and-forward simulation of a Poisson workload:\n\n"
        + _block(e11) +
        "\n**Reading:** aggregate traffic inflates by ~3x (mean stretch\n"
        "in aggregate), and peak per-link load shows the search-tree\n"
        "hot spots — the operational cost of the `9+ε` guarantee.\n"
    )

    e12 = relaxed.run(pair_count=pair_count, context=context)
    sections.append(
        "## E12 — the conclusion's open problem, measured\n\n"
        "Stretch and storage *distributions* behind the worst cases:\n\n"
        + _block(e12) +
        "\n**Reading:** median stretch sits near 3 and under 20% of\n"
        "pairs exceed 5 — empirical room for the fraction-relaxed\n"
        "schemes the paper conjectures in its conclusion.\n"
    )

    from repro.experiments.harness import standard_suite

    t1m = table1.run(
        epsilon=0.5,
        pair_count=pair_count,
        suite=standard_suite("medium"),
        context=context,
        jobs=jobs,
    )
    t2m = table2.run(
        epsilon=0.5,
        pair_count=pair_count,
        suite=standard_suite("medium"),
        context=context,
        jobs=jobs,
    )
    sections.append(
        "## E1b/E2b — Tables 1-2 at medium scale (n ≈ 256)\n\n"
        "The same measurements on 4x-larger networks, checking that\n"
        "the shapes persist as `n` grows:\n\n" + _block(t1m) + "\n"
        + _block(t2m) +
        "\n**Reading:** stretch bounds hold unchanged; compact tables\n"
        "grew polylogarithmically (compare E1/E2: ~4x the nodes, far\n"
        "less than 4x the bits) while baseline tables grew linearly.\n"
    )

    e15 = storage_audit.run(context=context)
    sections.append(
        "## E15 — storage audit (Lemma 3.8's accounting, itemized)\n\n"
        + _block(e15) +
        "\n**Reading:** the Theorem 1.1 table decomposes exactly into\n"
        "the proof's named parts (underlying labeled state, netting-\n"
        "tree parent label, Claim-3.9 H-links, Lemma-3.5 search\n"
        "trees); the breakdown sums to `table_bits` bit-for-bit\n"
        "(asserted in tests/test_tables_and_audit.py).\n"
    )

    e16 = resilience.run(
        epsilon=0.5, pair_count=pair_count // 3, context=context, jobs=jobs
    )
    sections.append(
        "## E16 — resilience under failures (beyond the paper)\n\n"
        "10% of links fail after the tables are built; packets forward\n"
        "with *stale* tables under three fallback policies, and stretch\n"
        "is charged against the post-failure optimum:\n\n"
        + _block(e16) +
        "\n**Reading:** fail-fast shows the schemes' raw fragility\n"
        "(roughly half the connected pairs die at the first dead\n"
        "link); a hop-bounded local detour restores delivery to every\n"
        "connected pair at small extra stretch, and net-hierarchy\n"
        "level-escalation lands in between — recovery via the paper's\n"
        "own zooming structure.  Every packet terminates with a typed\n"
        "outcome (no hangs).  Once the failed links come back, the\n"
        "graph hashes to the key every artifact was built under, so\n"
        "the warm BuildContext serves the old tables again; a real\n"
        "edit drops them, and its repair is a cold build (E17).\n"
    )

    e17 = churn_experiment.run(
        epsilon=0.5, pair_count=pair_count, edits=150, jobs=jobs
    )
    sections.append(
        "## E17 — table maintenance under churn (beyond the paper)\n\n"
        "A deterministic edit stream (60% weight changes, 24% link\n"
        "churn, 16% node churn) mutates the grid while packets keep\n"
        "flowing: each batch of 10 edits commits, the round's demands\n"
        "route against the now-stale tables under each fallback\n"
        "policy, then the tables are repaired through the warm\n"
        "BuildContext: every edit drops the cached metric and everything\n"
        "built on it, so each round builds the metric, the net\n"
        "hierarchy, the packings and the scheme cold, once.  One run per\n"
        "scheme serves all three policies:\n\n"
        + _block(e17) +
        "\n**Reading:** the delivery/stretch columns show what\n"
        "staleness costs between repairs: fail-fast loses packets\n"
        "at every changed link, while local-detour delivers nearly\n"
        "everything at modest extra stretch.  The `verified` column\n"
        "counts rounds whose repaired tables were asserted\n"
        "**bit-identical** (every routed result, table bits) to a cold\n"
        "rebuild of the current graph in a fresh context.  Repair\n"
        "throughput is wall clock, so it stays out of this table: the\n"
        "500-edit service run with per-round staleness-stretch vs\n"
        "repair-throughput curves is recorded in BENCH_churn.json.\n"
    )

    e18 = chaos_experiment.run(
        epsilon=0.5, pair_count=pair_count // 3, context=context, jobs=jobs
    )
    e18a = chaos_experiment.run_audit(epsilon=0.5, corrupt_count=4)
    sections.append(
        "## E18 — serving over an unreliable network (beyond the "
        "paper)\n\n"
        "The built tables are correct, but the channel is not: every\n"
        "link drops, delays, duplicates, and occasionally bit-flips\n"
        "headers under seeded per-link fault processes (drop rate as\n"
        "shown, jitter up to 50% of the link weight, corruption 0.5%\n"
        "per hop).  Each scheme serves the same demands twice — fail-\n"
        "fast (one attempt, no acks) and reliable (per-packet CRC-8\n"
        "header checksums, end-to-end acks, exponential-backoff\n"
        "retransmission):\n\n"
        + _block(e18) + "\n" + _block(e18a) +
        "\n**Reading:** at 5% per-link loss, fail-fast delivery decays\n"
        "with path length (long Theorem-1.4 routes suffer most), while\n"
        "ARQ restores ≥ 99% delivery for every scheme at the cost of\n"
        "the retransmission overhead shown — routing tables built for\n"
        "a perfect network serve an imperfect one with a transport\n"
        "wrapper, no table changes.  Every corrupted header is caught\n"
        "by its checksum (zero undetected), and the audit table shows\n"
        "the other half of the story: deliberately corrupted routing\n"
        "tables are detected row-by-row by digest, quarantined, healed\n"
        "through the warm BuildContext, and verified bit-identical to\n"
        "a cold rebuild.  The full loss sweep, the composed regime\n"
        "(chaos on top of 10% failed links with resilient re-routing),\n"
        "and wall-clock numbers live in BENCH_chaos.json.\n"
    )

    e19 = scale_experiment.run(
        pair_count=pair_count // 3, context=context
    )
    e19b = scale_experiment.run_doubling(
        epsilon=0.5, pair_count=pair_count // 3, context=context
    )
    e19c = scale_experiment.run_landmark_sweep(
        pair_count=pair_count // 3, context=context
    )
    sections.append(
        "## E19 — the Internet-scale regime on the lazy substrate "
        "(beyond the paper)\n\n"
        "The two-tier metric substrate materializes shortest-path rows\n"
        "on demand instead of paying the Θ(n²) APSP up front, which\n"
        "opens sizes the dense matrix cannot reach.  The landmark\n"
        "name-independent scheme (Krioukov–Fall–Yang regime, see\n"
        "PAPERS.md) builds from √n full rows plus one size-bounded\n"
        "vicinity search per node:\n\n"
        + _block(e19) + "\n" + _block(e19b) +
        "\n**Reading:** rows materialized stays ≈ √n ≪ n at every\n"
        "size — `python -m repro scale --sizes 256,2048,10000` extends\n"
        "the trajectory to n = 10⁴, where the scheme still builds from\n"
        "~100 rows while an eager APSP would need 10⁴ rows (~1.6 GB).\n"
        "The degradation table shows why the paper's doubling\n"
        "assumption matters: on power-law graphs Theorem 1.4's tables\n"
        "inflate several-fold (hub balls have unbounded doubling\n"
        "constant) while the landmark tables are family-agnostic — but\n"
        "only the doubling scheme carries a worst-case stretch\n"
        "guarantee, and the exponential-weight backbone family shows\n"
        "the landmark scheme's unbounded worst case.  Build-time and\n"
        "peak-memory trajectories are recorded in BENCH_substrate.json.\n"
        "The sizing sweep shows the Krioukov-Fall-Yang trade concretely:\n"
        "growing vicinities past the sqrt(n) default buys mean stretch\n"
        "toward 1 at linear table-bit cost:\n\n" + _block(e19c)
    )

    e20 = throughput_experiment.run(pair_count=pair_count)
    sections.append(
        "## E20 — compiled serving throughput (beyond the paper)\n\n"
        "Every scheme's built tables lower to flat numpy arrays\n"
        "(`RoutingScheme.compile_tables()`), and the batch engine\n"
        "advances all live packets one hop per vectorized sweep with\n"
        "output bit-identical to the interpreted `route()` loop —\n"
        "path, cost, legs breakdown, and header bits, exact float\n"
        "equality, property-tested over every scheme x fixture in\n"
        "tests/test_engine.py.  Throughput on the E19 power-law\n"
        "fixture (landmark scheme, lazy substrate):\n\n"
        + _block(e20) +
        "\n**Reading:** the speedup is the python-per-hop overhead the\n"
        "engine removes, so it grows with route length (and hence n).\n"
        "The committed trajectory (BENCH_throughput.json) records it per\n"
        "size in its `best_speedup` column; the n = 2048 row must clear\n"
        "the 10x acceptance floor.\n"
    )

    if provenance:
        sections.append(_provenance_appendix(context))
    return "\n".join(sections)


def _provenance_appendix(context: BuildContext) -> str:
    """Build-profile + example-trace appendix (``--provenance``)."""
    import json

    from repro.observability.catalog import SCHEMES
    from repro.observability.trace import replay

    lines = [
        "## Appendix — provenance\n",
        "Where the build time went (seconds per artifact kind, with\n"
        "cache hit/miss counts from the shared BuildContext):\n",
        "```json\n"
        + json.dumps(context.profile_report(), indent=2)
        + "\n```\n",
        "One example route per scheme on the 8x8 grid (0 -> 63),\n"
        "decision counts by phase; each trace replays to the exact\n"
        "returned path and cost (asserted here at generation time):\n",
    ]
    from repro.graphs.generators import grid_2d

    metric = context.metric(grid_2d(8))
    rows = []
    for slug, scheme_cls in SCHEMES.items():
        scheme = context.scheme(scheme_cls, metric)
        result, trace = scheme.trace_route(0, metric.n - 1)
        assert replay(trace).matches(result.path, result.cost)
        phases = ", ".join(
            f"{phase}: {count}" for phase, count in sorted(trace.phases().items())
        )
        rows.append(
            f"* `{slug}` — {len(trace.events)} decisions "
            f"({phases}); stretch {result.stretch:.3f}, "
            f"header {trace.header_bits} bits"
        )
    lines.append("\n".join(rows) + "\n")
    return "\n".join(lines)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    content = generate()
    with open(path, "w") as handle:
        handle.write(content)
    print(f"wrote {path} ({len(content)} bytes)")


if __name__ == "__main__":
    main()
