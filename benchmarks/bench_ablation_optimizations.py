"""Ablation: decompose the paper's three optimizations.

The paper applies loop fusion, compile-time bounds/branch removal and
local accumulation together; this bench separates them with the
``fused-*`` variants (fusion + branch removal, but global accumulation)
to attribute the speedup per optimization on each GPU.
"""

import pytest

from repro.perf import paper
from repro.perf.report import format_table, write_csv


@pytest.mark.parametrize("mode", ["jacobian", "residual"])
def test_ablation_optimizations(mode, sim_a100, sim_mi250x, problem, print_once, results_dir, benchmark):
    rows = []
    times = {}
    for gpu, sim in (("A100", sim_a100), ("MI250X-GCD", sim_mi250x)):
        b = sim.run(f"baseline-{mode}", problem)
        f = sim.run(f"fused-{mode}", problem)
        o = paper.run_as_paper(sim.spec, f"optimized-{mode}")
        times[gpu] = (b, f, o)
        rows += [
            [gpu, "baseline", b.time_s, b.gbytes_moved, "1.00x"],
            [gpu, "+fusion/branch removal", f.time_s, f.gbytes_moved, f"{b.time_s / f.time_s:.2f}x"],
            [gpu, "+local accumulation", o.time_s, o.gbytes_moved, f"{b.time_s / o.time_s:.2f}x"],
        ]
    headers = ["GPU", "variant", "time [s]", "GB moved", "speedup vs baseline"]
    print_once(
        f"ablation-opt-{mode}",
        format_table(headers, rows, title=f"Ablation -- optimization decomposition, {mode} kernel"),
    )
    write_csv(results_dir / f"ablation_optimizations_{mode}.csv", headers, rows)

    for gpu, (b, f, o) in times.items():
        # each optimization stage helps (or at least does not hurt)
        assert f.time_s <= b.time_s * 1.02, gpu
        assert o.time_s < f.time_s, gpu
        # local accumulation is where the data-movement drop comes from
        assert o.gbytes_moved <= f.gbytes_moved * (1 + 1e-12), gpu

    benchmark(sim_a100.run, f"fused-{mode}", problem)


def test_ablation_fused_matches_numerics(benchmark):
    """The ablation variant computes the same physics."""
    import numpy as np

    from repro.core import make_stokes_fields, run_kernel

    def fill(f):
        rng = np.random.default_rng(1)
        f.Ugrad.data[...] = rng.normal(size=f.Ugrad.shape) * 1e-3
        f.muLandIce.data[...] = rng.uniform(1e3, 1e5, f.muLandIce.shape)
        f.force.data[...] = rng.normal(size=f.force.shape)
        f.wBF.data[...] = rng.uniform(0.1, 1.0, f.wBF.shape)
        f.wGradBF.data[...] = rng.normal(size=f.wGradBF.shape) * 1e-3
        return f

    a = fill(make_stokes_fields(64))
    b = fill(make_stokes_fields(64))
    run_kernel("optimized-residual", a)
    benchmark(run_kernel, "fused-residual", b)
    assert np.allclose(a.Residual.values(), b.Residual.values(), rtol=1e-12)
