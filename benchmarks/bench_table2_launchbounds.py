"""Table II: LaunchBounds sweep of the optimized kernels on MI250X.

Reproduces time per call, Architectural/Accumulation VGPRs and speedup
vs. the default for LaunchBounds in {default, (128,2), (128,4), (256,2),
(1024,2)}.  The VGPR allocations must match the paper's table exactly
(they are outputs of the CDNA2 allocation model); the best configs must
be (128,2)/(256,2) with speedups near 1.54x (Jacobian) / 1.17x
(Residual).
"""

from repro.perf import paper
from repro.perf.report import format_table, write_csv


def test_table2_report(sim_mi250x, problem, print_once, results_dir, benchmark):
    for mode in paper.MODES:
        profiles = paper.launchbounds_sweep(mode)

        # exact VGPR reproduction of the paper's table
        for (key, p), vgprs in zip(profiles.items(), paper.PAPER_VGPRS[mode]):
            assert (p.arch_vgprs, p.accum_vgprs) == vgprs, f"{mode} {key}"

        # best configs and speedup magnitude
        base_t = profiles["default"].time_s
        best = paper.PAPER_BEST_SPEEDUP[mode]
        for key in ("128,2", "256,2"):
            sp = base_t / profiles[key].time_s
            assert abs(sp - best) / best < 0.25, f"{mode} {key}: {sp:.2f} vs paper {best}"
        # (1024,2) is no better than the default (paper: 0.93-0.98x)
        assert profiles["1024,2"].time_s >= base_t * 0.99

    table = paper.table2()
    print_once(
        "table2",
        format_table(table.headers, table.rows, title=table.title)
        + "\n(paper best: 128,2 / 256,2 with {jacobian}x Jacobian, {residual}x Residual; "
        "VGPRs match exactly)".format(**paper.PAPER_BEST_SPEEDUP),
    )
    write_csv(results_dir / "table2_launchbounds.csv", table.headers, table.rows)

    benchmark(sim_mi250x.run, "optimized-jacobian", problem)


def test_table2_agprs_only_with_generous_budget(sim_mi250x, problem, benchmark):
    """The accumulation VGPRs appear exactly when <=2 waves/SIMD are targeted."""
    from repro.kokkos.policy import LaunchBounds

    p_good = benchmark(sim_mi250x.run, "optimized-jacobian", problem, launch_bounds=paper.AMD_TUNED)
    p_tight = sim_mi250x.run("optimized-jacobian", problem, launch_bounds=LaunchBounds(128, 4))
    assert p_good.accum_vgprs == 128 and p_good.scratch_bytes_per_thread == 0
    assert p_tight.accum_vgprs == 0 and p_tight.scratch_bytes_per_thread > 0
    assert p_good.time_s < p_tight.time_s
