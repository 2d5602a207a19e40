"""Figure 3: rooflines of the four kernels on A100 (left) and MI250X (right).

Regenerates the figure's data series: the bandwidth/FP64 ceilings per
GPU and the (arithmetic intensity, GFLOP/s) point per kernel, written as
CSV and rendered as an ASCII log-log plot.  Shape criteria: every kernel
is memory-bound; optimization raises arithmetic intensity on both GPUs;
the optimized Jacobian approaches the bandwidth ceiling on the A100
(paper: ~90% of peak BW) more closely than on the MI250X (~60%).
"""

import pytest

from repro.gpusim.specs import ALL_GPUS
from repro.perf import RooflineModel, format_table, paper, write_csv


@pytest.mark.parametrize("gpu", paper.GPU_NAMES)
def test_fig3_roofline(gpu, paper_profiles, print_once, results_dir, benchmark):
    spec = ALL_GPUS[gpu]
    model = RooflineModel(spec)
    pts = paper.roofline_points(paper_profiles, gpu)
    table = paper.fig3_points(paper_profiles, spec)

    ai, gf = model.ceiling_series()
    write_csv(results_dir / f"fig3_roofline_{gpu}.csv", ["ai", "gflops_ceiling"], list(map(list, zip(ai, gf))))
    write_csv(results_dir / f"fig3_points_{gpu}.csv", table.headers, table.rows)
    print_once(
        f"fig3-{gpu}",
        format_table(table.headers, table.rows, title=table.title)
        + "\n"
        + paper.fig3_plot(paper_profiles, spec),
    )

    # shape criteria
    for name, pt in pts.items():
        assert model.is_memory_bound(pt), name
    for mode in ("jacobian", "residual"):
        assert (
            pts[f"optimized-{mode}"].arithmetic_intensity
            >= pts[f"baseline-{mode}"].arithmetic_intensity
        )
        assert pts[f"optimized-{mode}"].gflops > pts[f"baseline-{mode}"].gflops

    benchmark(model.ceiling_series)


def test_fig3_cross_gpu_bandwidth_story(paper_profiles, benchmark):
    """A100 optimized kernels run closer to peak BW than MI250X's (Sec. VI)."""
    a = benchmark(paper.roofline_points, paper_profiles, "A100")
    m = paper.roofline_points(paper_profiles, "MI250X-GCD")
    ma, mm = RooflineModel(ALL_GPUS["A100"]), RooflineModel(ALL_GPUS["MI250X-GCD"])
    for mode in ("jacobian", "residual"):
        fa = ma.bandwidth_fraction(a[f"optimized-{mode}"])
        fm = mm.bandwidth_fraction(m[f"optimized-{mode}"])
        assert fa > fm
        assert fa > 0.60  # paper: ~90% on A100
        assert fm > 0.35  # paper: ~60% on MI250X

    # baselines sit below ~40-75% of peak BW (paper: below 40%)
    for mode in ("jacobian", "residual"):
        assert ma.bandwidth_fraction(a[f"baseline-{mode}"]) < 0.75
        assert mm.bandwidth_fraction(m[f"baseline-{mode}"]) < 0.75
