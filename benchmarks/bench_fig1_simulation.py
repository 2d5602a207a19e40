"""Figure 1: Antarctica simulation snapshot with GPU-solved velocities.

The paper's Fig. 1 shows a MALI production run's surface speed field.
This bench runs the full synthetic-Antarctica velocity solve (coarse
resolution -- pure-Python numerics), writes the surface speed field as
CSV, and renders an ASCII speed map.  Assertions check the
glaciological shape: slow divide, fast margins, outward flow.
"""

import numpy as np
import pytest

from repro.app import AntarcticaConfig, AntarcticaTest
from repro.perf.report import write_csv

CFG = AntarcticaConfig(resolution_km=300.0, num_layers=5)


@pytest.fixture(scope="module")
def solved():
    test = AntarcticaTest.build(CFG)
    sol = test.run()
    return test, sol


def _speed_map(test, sol, width=60, height=26):
    mesh = test.mesh
    dm = test.problem.dofmap
    u = dm.nodal_view(sol.u)
    surf = mesh.surface_nodes()
    xy = mesh.coords[surf, :2]
    speed = np.hypot(u[surf, 0], u[surf, 1])

    geo = test.geometry
    grid = [[" "] * width for _ in range(height)]
    ramp = " .:-=+*#%@"
    smax = speed.max() or 1.0
    for (x, y), s in zip(xy, speed):
        cx = int(x / geo.lx * (width - 1))
        cy = int(y / geo.ly * (height - 1))
        level = int(min(0.999, s / smax) * (len(ramp) - 1))
        grid[height - 1 - cy][cx] = ramp[max(1, level)]
    return "\n".join("".join(r) for r in grid), xy, speed


def test_fig1_snapshot(solved, print_once, results_dir, benchmark):
    test, sol = solved
    plot, xy, speed = _speed_map(test, sol)
    write_csv(
        results_dir / "fig1_surface_speed.csv",
        ["x_m", "y_m", "speed_m_per_yr"],
        # 6 significant digits: what the solve reproduces across BLAS
        # builds (its regression gate is 1e-5), so CI can diff the file
        [[x, y, float(f"{s:.6g}")] for (x, y), s in zip(xy, speed)],
    )
    print_once(
        "fig1",
        "Figure 1 (reproduced) -- synthetic Antarctica surface speed [m/yr]\n"
        + plot
        + f"\nmax surface speed: {speed.max():.1f} m/yr, mean: {speed.mean():.1f} m/yr"
        + f"\nmean |u| (regression value): {sol.mean_velocity:.6f} m/yr",
    )

    # glaciological shape: the divide is slow, the margin zone fast
    geo = test.geometry
    cx, cy = geo.center
    r = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy)
    inner = speed[r < 0.25 * geo.radius]
    outer = speed[(r > 0.6 * geo.radius) & (r < 1.0 * geo.radius)]
    assert inner.mean() < 0.5 * outer.mean()

    # the benchmarked operation: one residual assembly through the
    # evaluator DAG with the paper's optimized kernel
    u = sol.u
    benchmark(test.problem.residual, u)


def test_fig1_regression_check(solved, benchmark):
    """Section III-B acceptance: mean solution vs reference at 1e-5."""
    test, sol = solved
    passed, ref = benchmark(test.check, sol)
    assert ref is not None and passed


def test_fig1_newton_history(solved, benchmark):
    test, sol = solved
    norms = benchmark(lambda: sol.newton.residual_norms)
    assert len(norms) == 9  # initial + 8 steps
    assert norms[-1] < 1e-4 * norms[0]
