"""Ablation: L2 capacity vs baseline data movement.

The paper credits the A100/MI250X baseline-efficiency gap to cache
capacity (40 MB vs 8 MB L2).  This bench sweeps L2 size on the MI250X
machine model and shows baseline Jacobian traffic falling toward the
theoretical minimum as the cache grows -- the mechanism behind the
cross-GPU e_DM story.
"""

import dataclasses

import pytest

from repro.gpusim import GPUSimulator, MI250X_GCD
from repro.perf import theoretical_minimum, format_table, paper, write_csv

L2_SIZES_MB = [2, 4, 8, 16, 40, 80]


def test_ablation_l2_capacity(problem, print_once, results_dir, benchmark):
    th = theoretical_minimum("optimized-jacobian", problem.num_cells)
    rows = []
    traffic = []
    for mb in L2_SIZES_MB:
        spec = dataclasses.replace(MI250X_GCD, name=f"MI250X-L2-{mb}MB", l2_bytes=mb * 1024 * 1024)
        p = GPUSimulator(spec).run("baseline-jacobian", problem)
        traffic.append(p.hbm_bytes)
        rows.append([f"{mb} MB", p.gbytes_moved, f"{paper.efficiencies(p).e_DM:.0%}", p.time_s])
    headers = ["L2 size", "GB moved (baseline Jacobian)", "e_DM", "time [s]"]
    print_once(
        "ablation-l2",
        format_table(headers, rows, title="Ablation -- L2 capacity vs baseline data movement (MI250X model)"),
    )
    write_csv(results_dir / "ablation_l2_capacity.csv", headers, rows)

    # monotone: more cache -> never more traffic, and the sweep must
    # actually exercise the capacity effect
    assert all(a >= b for a, b in zip(traffic, traffic[1:]))
    assert traffic[0] > 1.15 * traffic[-1]
    # traffic never drops below the application bound
    assert traffic[-1] >= th.total_bytes * 0.999

    spec = dataclasses.replace(MI250X_GCD, l2_bytes=16 * 1024 * 1024)
    benchmark(GPUSimulator(spec).run, "baseline-jacobian", problem)


def test_ablation_occupancy_interleave(problem, benchmark):
    """More co-resident warps -> more interleave-induced L2 thrash."""
    base = benchmark(GPUSimulator(MI250X_GCD).run, "baseline-jacobian", problem)
    calmer = dataclasses.replace(MI250X_GCD, interleave_l2=MI250X_GCD.interleave_l2 / 4)
    calm = GPUSimulator(calmer).run("baseline-jacobian", problem)
    assert calm.hbm_bytes <= base.hbm_bytes
