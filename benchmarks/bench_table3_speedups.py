"""Table III: time per call and speedup, baseline vs optimized kernels.

Paper values (for shape comparison; absolute seconds are testbed-specific):

============  ========  =========  ==========  ==========
Kernel        Baseline  Optimized  Baseline    Optimized
              A100      A100       GCD MI250X  GCD MI250X
============  ========  =========  ==========  ==========
Jacobian      1.2e-1    3.6e-2     1.4e-1      5.4e-2
  speedup               3.3x                   2.7x
Residual      3.7e-3    1.7e-3     8.3e-3      2.4e-3
  speedup               2.2x                   3.5x
============  ========  =========  ==========  ==========
"""

from repro.perf import paper
from repro.perf.report import format_table, write_csv


def test_table3_report(paper_profiles, print_once, results_dir, benchmark, sim_a100, problem):
    table = paper.table3(paper_profiles)
    print_once(
        "table3",
        format_table(table.headers, table.rows, title=table.title)
        + "\n(paper speedups: Jacobian {}x/{}x, Residual {}x/{}x)".format(
            *paper.PAPER_SPEEDUPS.values()
        ),
    )
    write_csv(results_dir / "table3_speedups.csv", table.headers, table.rows)

    # shape criteria: optimized wins everywhere by ~2-4x
    speedups = paper.speedups(paper_profiles)
    for key, quoted in paper.PAPER_SPEEDUPS.items():
        ours = speedups[key]
        assert 1.8 <= ours <= 4.5, f"{key}: speedup {ours:.2f} outside the paper's band"
        assert abs(ours - quoted) / quoted < 0.45, f"{key}: {ours:.2f} vs paper {quoted}"

    # the benchmarked operation: one full simulator profile of the most
    # expensive kernel (trace -> registers -> cache model -> timing)
    benchmark(sim_a100.run, "baseline-jacobian", problem)


def test_table3_jacobian_dominates(paper_profiles, benchmark):
    """The Jacobian is the most time-consuming kernel on both GPUs."""
    def ratios():
        out = []
        for gpu in paper.GPU_NAMES:
            for impl in paper.IMPLS:
                j = paper_profiles[(impl, "jacobian", gpu)]
                r = paper_profiles[(impl, "residual", gpu)]
                out.append(j.time_s / r.time_s)
        return out

    for ratio in benchmark(ratios):
        assert ratio > 5.0


def test_table3_numeric_kernels_agree(benchmark):
    """The two implementations the table compares are numerically equal."""
    import numpy as np

    from repro.core import make_stokes_fields, run_kernel

    def fill(f):
        rng = np.random.default_rng(0)
        f.Ugrad.data.val[...] = rng.normal(size=f.Ugrad.shape) * 1e-3
        f.muLandIce.data.val[...] = rng.uniform(1e3, 1e5, f.muLandIce.shape)
        f.force.data.val[...] = rng.normal(size=f.force.shape)
        f.wBF.data[...] = rng.uniform(0.1, 1.0, f.wBF.shape)
        f.wGradBF.data[...] = rng.normal(size=f.wGradBF.shape) * 1e-3
        return f

    fb = fill(make_stokes_fields(512, mode="jacobian"))
    fo = fill(make_stokes_fields(512, mode="jacobian"))
    run_kernel("baseline-jacobian", fb)
    benchmark(run_kernel, "optimized-jacobian", fo)
    assert np.allclose(fb.Residual.values(), fo.Residual.values(), rtol=1e-12)
    assert np.allclose(fb.Residual.data.dx, fo.Residual.data.dx, rtol=1e-12)
