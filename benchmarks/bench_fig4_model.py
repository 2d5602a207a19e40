"""Figure 4: illustration of the time-oriented performance portability model.

Fig. 4 is the didactic version of Fig. 5: one observed kernel point, the
architectural bound (HBM-peak diagonal), the application bound (vertical
wall at minimum data movement) and the achievable corner.  This bench
regenerates that illustration's data and asserts the geometric relations
the model is built on.
"""

import numpy as np
import pytest

from repro.gpusim.specs import A100
from repro.perf import TimeOrientedModel, theoretical_minimum, format_table, ascii_scatter, paper, write_csv


def test_fig4_illustration(paper_profiles, problem, print_once, results_dir, benchmark):
    th = theoretical_minimum("optimized-jacobian", problem.num_cells)
    m = TimeOrientedModel(kernel="jacobian", theoretical=th, peak_bandwidth=A100.hbm_bytes_per_s)
    profile = paper_profiles[("baseline", "jacobian", "A100")]
    observed = m.add_profile(profile, label="Observed")
    wall_b, wall_t = m.achievable_point

    rows = [
        ["Observed", profile.gbytes_moved, profile.time_ms],
        ["Achievable", wall_b / 1e9, wall_t * 1e3],
        ["Architectural bound @ observed bytes", profile.gbytes_moved, float(m.architectural_bound_time(observed.bytes_moved)) * 1e3],
        ["Application wall [GB]", wall_b / 1e9, "-"],
    ]
    headers = ["item", "GBytes", "time [ms]"]
    write_csv(results_dir / "fig4_model_illustration.csv", headers, rows)

    xs, ts, wall = m.series()
    plot = ascii_scatter(
        [(observed.bytes_moved, observed.time_s, "X"), (wall_b, wall_t, "*")],
        lines=[
            (xs[0], float(ts[0]), xs[-1], float(ts[-1]), "/"),
            (wall, float(ts[0]) * 0.5, wall, float(ts[-1]) * 2.0, "|"),
        ],
        xlabel="GBytes moved (HBM)",
        ylabel="time per invocation [s]",
    )
    print_once(
        "fig4",
        "Figure 4 (reproduced) -- model illustration\n"
        + format_table(headers, rows)
        + "\n(X = observed kernel, * = achievable, / = architectural bound, | = application wall)\n"
        + plot,
    )

    # geometric invariants of the model
    assert observed.bytes_moved >= wall_b  # right of the wall
    assert observed.time_s >= float(m.architectural_bound_time(observed.bytes_moved))  # above diagonal
    # the achievable corner is the intersection of the two bounds
    assert wall_t == pytest.approx(wall_b / A100.hbm_bytes_per_s)
    # efficiencies are the coordinate ratios to the bounds
    eff = paper.efficiencies(profile)
    assert eff.e_DM == pytest.approx(wall_b / observed.bytes_moved)
    assert eff.e_time == pytest.approx(wall_t / observed.time_s)

    benchmark(m.series)


def test_fig4_bound_monotonicity(problem, benchmark):
    """The architectural bound is linear; halving bytes halves the bound."""
    th = benchmark(theoretical_minimum, "optimized-residual", problem.num_cells)
    m = TimeOrientedModel(kernel="residual", theoretical=th, peak_bandwidth=A100.hbm_bytes_per_s)
    t1 = float(m.architectural_bound_time(2.0e9))
    t2 = float(m.architectural_bound_time(1.0e9))
    assert t1 == pytest.approx(2 * t2)
