"""Application layer: the MALI-style velocity solve and the Antarctica test.

Ties every substrate together: mesh generation, FE discretization, the
evaluator DAG with the paper's kernels, Newton/GMRES/MDSC, and the
Section III-B regression check (eight nonlinear steps, linear tolerance
1e-6, mean-solution comparison at relative tolerance 1e-5).
"""

from repro.app.config import VelocityConfig, AntarcticaConfig
from repro.app.velocity_solver import StokesVelocityProblem, VelocitySolution
from repro.app.antarctica import AntarcticaTest, run_antarctica_test

__all__ = [
    "VelocityConfig",
    "AntarcticaConfig",
    "StokesVelocityProblem",
    "VelocitySolution",
    "AntarcticaTest",
    "run_antarctica_test",
]
