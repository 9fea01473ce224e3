"""Figure 7: speedup over BF versus the similarity threshold α.

The paper expresses every algorithm's execution time as a speedup factor over
the brute-force baseline (per-matrix Markowitz + full decomposition).  Its
Figure 7 shows CLUDE fastest, then CINC, then INC, with the cluster-based
algorithms losing their advantage as α approaches 1 (clusters shrink towards
singletons and the methods degenerate to BF).

Note on magnitudes: in this pure-Python reproduction the absolute speedups
are compressed compared with the paper's Java/testbed numbers (the ordering
and full-decomposition baseline is comparatively cheap at this scale), but
the ranking of the algorithms and the trends with α are preserved.
"""

from __future__ import annotations

from _shared import ALPHAS, alpha_sweep, baseline_report, series_from_reports, single_run
from repro.bench.reporting import print_header, series_table


def _sweep(dataset):
    return {
        "CINC": alpha_sweep(dataset, "CINC"),
        "CLUDE": alpha_sweep(dataset, "CLUDE"),
        "INC": baseline_report(dataset, "INC"),
    }


def _check_and_print(dataset, sweeps, min_best_speedup):
    cinc = series_from_reports(sweeps["CINC"], "speedup")
    clude = series_from_reports(sweeps["CLUDE"], "speedup")
    inc_speedup = sweeps["INC"].speedup

    print_header(f"Figure 7 ({dataset}): speedup over BF vs alpha")
    print(series_table("alpha", ALPHAS, {"CINC": cinc, "CLUDE": clude}))
    print(f"\nINC speedup (flat reference line): {inc_speedup:.2f}")

    best_alpha_index = max(range(len(ALPHAS)), key=lambda index: clude[index])
    print(f"CLUDE's best speedup: {clude[best_alpha_index]:.2f}x at alpha={ALPHAS[best_alpha_index]}")

    # Shape checks: CLUDE is the fastest method at its best alpha, beating
    # both CINC and INC; CINC is at least as fast as INC at its best alpha.
    assert max(clude) > max(cinc)
    assert max(clude) > inc_speedup
    assert max(cinc) >= inc_speedup * 0.9
    # CLUDE must actually beat the brute-force baseline (the margin differs by
    # workload: the smaller DBLP workload leaves less room over BF).
    assert max(clude) > min_best_speedup
    return clude, cinc


def test_fig07a_wiki_speedup_vs_alpha(benchmark):
    """Figure 7(a): Wiki."""
    sweeps = single_run(benchmark, _sweep, "wiki")
    _check_and_print("wiki", sweeps, min_best_speedup=1.5)


def test_fig07b_dblp_speedup_vs_alpha(benchmark):
    """Figure 7(b): DBLP."""
    sweeps = single_run(benchmark, _sweep, "dblp")
    clude, cinc = _check_and_print("dblp", sweeps, min_best_speedup=1.0)
    assert len(clude) == len(cinc) == len(ALPHAS)
