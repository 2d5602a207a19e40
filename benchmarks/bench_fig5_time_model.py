"""Figure 5: the time-oriented performance portability plane.

For each kernel (Jacobian, Residual): the eight observed points (baseline
/optimized x A100/MI250X) in the (GBytes moved, time per invocation)
plane, the common architectural diagonal, and the application wall at
the theoretical minimum data movement.  Shape criteria: no point beats a
bound; optimization moves every point down-left toward the achievable
corner; the Jacobian wall sits ~17x to the right of the Residual wall.
"""

import pytest

from repro.perf import format_table, paper, theoretical_minimum, write_csv


@pytest.mark.parametrize("mode", paper.MODES)
def test_fig5_time_model(mode, paper_profiles, print_once, results_dir, benchmark):
    m = paper.fig5_model(paper_profiles, mode)
    m.validate()  # no observed point may beat either bound

    table = paper.fig5_points(paper_profiles, mode)
    write_csv(results_dir / f"fig5_time_model_{mode}.csv", table.headers, table.rows)
    print_once(
        f"fig5-{mode}",
        format_table(table.headers, table.rows, title=table.title)
        + "\n"
        + paper.fig5_plot(paper_profiles, mode),
    )

    # optimization moves toward the achievable corner on both GPUs
    for gpu in paper.GPU_NAMES:
        b = paper_profiles[("baseline", mode, gpu)]
        o = paper_profiles[("optimized", mode, gpu)]
        assert o.time_s < b.time_s
        assert o.hbm_bytes <= b.hbm_bytes * (1 + 1e-12)
        assert paper.efficiencies(o).e_DM >= paper.efficiencies(b).e_DM

    benchmark(paper.fig5_model, paper_profiles, mode)


def test_fig5_jacobian_wall_17x_residual(problem, benchmark):
    """The Jacobian's application wall sits ~17x right of the Residual's."""
    tj = benchmark(theoretical_minimum, "optimized-jacobian", problem.num_cells)
    tr = theoretical_minimum("optimized-residual", problem.num_cells)
    assert tj.total_bytes / tr.total_bytes == pytest.approx(17.0)


def test_fig5_optimized_near_wall(paper_profiles, benchmark):
    """Optimized implementations sit close to the application bound."""
    benchmark(paper.fig5_points, paper_profiles, "residual")
    for mode in paper.MODES:
        for gpu in paper.GPU_NAMES:
            assert paper.efficiencies(paper_profiles[("optimized", mode, gpu)]).e_DM > 0.8, (mode, gpu)
