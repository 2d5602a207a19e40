"""Table IV: e_time / e_DM efficiencies and the portability metric Phi.

Paper values:

==========  ==========  ========  =====  ============  ====
Impl        Efficiency  Kernel    A100   1 GCD MI250X  Phi
==========  ==========  ========  =====  ============  ====
Baseline    e_time      Jacobian  39%    38%           39%
Baseline    e_time      Residual  62%    42%           50%
Baseline    e_DM        Jacobian  53%    42%           47%
Baseline    e_DM        Residual  65%    41%           50%
Optimized   e_time      Jacobian  79%    53%           63%
Optimized   e_time      Residual  88%    60%           71%
Optimized   e_DM        Jacobian  84%    81%           83%
Optimized   e_DM        Residual  100%   100%          100%
==========  ==========  ========  =====  ============  ====

Shape criteria asserted below: every optimized efficiency beats its
baseline counterpart on every platform, optimized e_DM reaches ~1.0 for
the Residual on both GPUs, and Phi improves by >= 20 points for every
(efficiency, kernel) row -- the paper's headline "20% to 50% increment".
"""

from repro.perf import paper, performance_portability
from repro.perf.report import format_table, write_csv

A100, MI250X, PHI = 0, 1, 2  # columns of paper.table4_values


def test_table4_report(paper_profiles, print_once, results_dir, benchmark):
    table = paper.table4(paper_profiles)
    print_once("table4", format_table(table.headers, table.rows, title=table.title))
    write_csv(results_dir / "table4_portability.csv", table.headers, table.rows)

    val = paper.table4_values(paper_profiles)

    # every optimized efficiency beats its baseline counterpart everywhere
    for metric in ("e_time", "e_DM"):
        for mode in paper.MODES:
            for gpu in (A100, MI250X):
                b = val[("baseline", metric, mode)][gpu]
                o = val[("optimized", metric, mode)][gpu]
                assert o >= b, (metric, mode, gpu)

    # optimized residual e_DM ~ 100% on both platforms (paper: 100%)
    assert min(val[("optimized", "e_DM", "residual")][:PHI]) > 0.97
    # optimized jacobian e_DM >= 80% (paper: 84% / 81%)
    assert min(val[("optimized", "e_DM", "jacobian")][:PHI]) > 0.80

    # Phi improves by >= 20 points for e_time rows and >= 15 for e_DM
    for mode in paper.MODES:
        assert val[("optimized", "e_time", mode)][PHI] - val[("baseline", "e_time", mode)][PHI] >= 0.20, mode
        assert val[("optimized", "e_DM", mode)][PHI] >= val[("baseline", "e_DM", mode)][PHI]
    assert val[("optimized", "e_DM", "jacobian")][PHI] - val[("baseline", "e_DM", "jacobian")][PHI] >= 0.15

    # A100 achieves higher e_time than the MI250X GCD after optimization
    for mode in paper.MODES:
        assert val[("optimized", "e_time", mode)][A100] > val[("optimized", "e_time", mode)][MI250X]

    benchmark(paper.table4_values, paper_profiles)


def test_phi_zero_when_unsupported(benchmark):
    """Eq. 4: Phi collapses to zero if any platform is unsupported."""
    assert benchmark(performance_portability, [0.9, None]) == 0.0
