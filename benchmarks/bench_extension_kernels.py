"""Extension: the portability model applied to several kernels.

The paper's future work: "We will use our performance portability model
to evaluate several kernels."  This bench places three velocity-solver
kernels in the time-oriented plane on both GPUs -- the Jacobian and
Residual of the paper plus the ViscosityFO kernel that precedes them in
the evaluation chain -- and reports e_time/e_DM/Phi per kernel.
"""

from repro.gpusim import ANTARCTICA_16KM
from repro.perf import format_table, paper, write_csv

KERNELS = [
    ("optimized-jacobian", "jacobian"),
    ("optimized-residual", "residual"),
    ("viscosity-residual", "viscosity"),
]


def test_portability_of_several_kernels(print_once, results_dir, benchmark, sim_a100):
    rows = []
    phis = {}
    for key, label in KERNELS:
        effs, phi = paper.portability([paper.run_as_paper(spec, key) for spec in paper.PAPER_GPUS])
        phis[label] = phi
        rows.append(
            [label, f"{effs[0].e_time:.0%}/{effs[1].e_time:.0%}", f"{phi.e_time:.0%}",
             f"{effs[0].e_DM:.0%}/{effs[1].e_DM:.0%}", f"{phi.e_DM:.0%}"]
        )
    headers = ["kernel", "e_time A100/MI", "Phi(time)", "e_DM A100/MI", "Phi(DM)"]
    print_once(
        "ext-kernels",
        format_table(headers, rows, title="Extension -- portability model over several kernels"),
    )
    write_csv(results_dir / "extension_kernels_portability.csv", headers, rows)

    # the streaming viscosity kernel should sit on the application wall
    assert phis["viscosity"].e_DM > 0.99
    # every optimized kernel reaches >= 80% data-movement portability
    for label, phi in phis.items():
        assert phi.e_DM > 0.80, label

    benchmark(sim_a100.run, "viscosity-residual", ANTARCTICA_16KM)


def test_viscosity_kernel_is_minor_cost(sim_a100, benchmark):
    """The Jacobian dominates; the chain's other kernels are cheap."""
    j = sim_a100.run("optimized-jacobian", ANTARCTICA_16KM)
    v = benchmark(sim_a100.run, "viscosity-residual", ANTARCTICA_16KM)
    assert v.time_s < 0.1 * j.time_s
