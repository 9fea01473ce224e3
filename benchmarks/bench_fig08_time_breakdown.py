"""Figure 8: CLUDE's execution-time breakdown and the Bennett-time comparison.

Figure 8(a) of the paper splits CLUDE's execution time into clustering time,
Markowitz (ordering) time, full LU decomposition time and Bennett
(incremental update) time as α varies: clustering is negligible, ordering and
full-decomposition time grow with α (more clusters), and Bennett time shrinks
(better orderings) while remaining the dominant component around the best α.
Figure 8(b) compares the Bennett time of CINC and CLUDE head-to-head — the
static universal structure makes CLUDE's incremental updates much cheaper.
"""

from __future__ import annotations

import gc
import statistics

from _shared import ALPHAS, alpha_sweep, series_from_reports, single_run, wiki_runner
from repro.bench.reporting import print_header, series_table
from repro.core.cinc import decompose_sequence_cinc
from repro.core.clude import decompose_sequence_clude
from repro.core.clustering import alpha_clustering

#: Interleaved CINC/CLUDE runs per α behind each Fig. 8(b) median.
BENNETT_REPEATS = 5


def _sweep():
    return {
        "CLUDE": alpha_sweep("wiki", "CLUDE"),
        "CINC": alpha_sweep("wiki", "CINC"),
    }


def test_fig08a_clude_time_breakdown(benchmark):
    """Figure 8(a): CLUDE execution-time components vs alpha (Wiki)."""
    sweeps = single_run(benchmark, _sweep)
    clude = sweeps["CLUDE"]

    components = {
        "total": series_from_reports(clude, "total_time"),
        "clustering": series_from_reports(clude, "clustering_time"),
        "markowitz": series_from_reports(clude, "ordering_time"),
        "full_lu": series_from_reports(clude, "decomposition_time"),
        "bennett": series_from_reports(clude, "bennett_time"),
        "symbolic": series_from_reports(clude, "symbolic_time"),
    }
    print_header("Figure 8(a): CLUDE execution-time breakdown vs alpha (Wiki, seconds)")
    print(series_table("alpha", ALPHAS, components))

    # Clustering time is negligible compared with the total.
    assert all(c <= 0.25 * t for c, t in zip(components["clustering"], components["total"]))
    # Ordering + full decomposition time does not decrease as alpha grows
    # (more clusters => more orderings/decompositions), comparing extremes.
    fixed_cost_low = components["markowitz"][0] + components["full_lu"][0]
    fixed_cost_high = components["markowitz"][-1] + components["full_lu"][-1]
    assert fixed_cost_high >= fixed_cost_low * 0.9
    # Bennett time is the dominant incremental component at the loosest alpha.
    assert components["bennett"][0] >= components["clustering"][0]


def _interleaved_bennett():
    """Median Bennett time of CINC and CLUDE per α, sampled interleaved.

    Both algorithms run on the same α-clusters, alternating which goes
    first, ``BENNETT_REPEATS`` times per α, so host drift hits both sides
    alike.  The collector runs before each run and is off during it, so
    neither side pays for scanning the other's garbage.  An α whose
    clusters are all singletons has no Bennett work and is reported as
    zero for both without running.
    """
    matrices = wiki_runner().workload.matrices
    decompose = {"CINC": decompose_sequence_cinc, "CLUDE": decompose_sequence_clude}
    medians = {name: [] for name in decompose}
    structural_ops = {name: [] for name in decompose}
    for alpha in ALPHAS:
        clusters = alpha_clustering(matrices, alpha)
        if all(cluster.size == 1 for cluster in clusters):
            for name in decompose:
                medians[name].append(0.0)
            continue
        samples = {name: [] for name in decompose}
        for repeat in range(BENNETT_REPEATS):
            for name in ("CINC", "CLUDE") if repeat % 2 == 0 else ("CLUDE", "CINC"):
                gc.collect()
                gc.disable()
                try:
                    result = decompose[name](matrices, clusters=clusters)
                finally:
                    gc.enable()
                samples[name].append(result.timing.bennett_time)
                structural_ops[name].append(result.total_structural_ops)
        for name in decompose:
            medians[name].append(statistics.median(samples[name]))
    return medians, structural_ops


def test_fig08b_bennett_time_cinc_vs_clude(benchmark):
    """Figure 8(b): Bennett time of CINC vs CLUDE (Wiki)."""
    medians, structural_ops = single_run(benchmark, _interleaved_bennett)
    cinc_bennett, clude_bennett = medians["CINC"], medians["CLUDE"]

    print_header(
        f"Figure 8(b): median Bennett time (seconds) of {BENNETT_REPEATS} interleaved runs"
        " — CINC vs CLUDE (Wiki)"
    )
    print(series_table("alpha", ALPHAS, {"CINC": cinc_bennett, "CLUDE": clude_bennett}))
    ratios = [c / max(k, 1e-9) for c, k in zip(cinc_bennett, clude_bennett)]
    print(f"\nCINC / CLUDE Bennett-time ratios: {[round(r, 2) for r in ratios]}")

    # The static structure must make CLUDE's incremental updates clearly
    # cheaper than CINC's dynamic adjacency lists wherever incremental work
    # actually happens (at alpha = 1.0 every cluster is a singleton and both
    # Bennett times are zero).
    compared = 0
    for cinc_time, clude_time in zip(cinc_bennett, clude_bennett):
        if cinc_time > 0.0:
            assert clude_time < cinc_time
            compared += 1
    assert compared >= 2

    assert any(ops > 0 for ops in structural_ops["CINC"])
    assert all(ops == 0 for ops in structural_ops["CLUDE"])
