"""The Antarctica standalone test (paper Section III-B).

Builds the synthetic Antarctica at a chosen resolution, extrudes the
footprint by 20 layers, runs the velocity solve (eight damped Newton
steps, linear tolerance 1e-6), and compares the mean of the final
solution against a stored reference at relative tolerance 1e-5 --
exactly the structure of the paper's acceptance test, on the synthetic
geometry that substitutes for the real 16-km Antarctica dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.app.config import AntarcticaConfig
from repro.app.velocity_solver import StokesVelocityProblem, VelocitySolution
from repro.mesh.extrude import ExtrudedMesh, extrude_footprint
from repro.mesh.geometry import IceGeometry, antarctica_geometry, greenland_geometry
from repro.mesh.planar import masked_quad_footprint

__all__ = ["AntarcticaTest", "run_antarctica_test", "REFERENCE_FILE"]

REFERENCE_FILE = Path(__file__).parent / "reference_values.json"

#: mean-solution regression tolerance (paper: 1e-5)
CHECK_RTOL = 1.0e-5


@dataclass
class AntarcticaTest:
    """A configured Antarctica run: mesh + problem + regression check."""

    config: AntarcticaConfig
    geometry: IceGeometry
    mesh: ExtrudedMesh
    problem: StokesVelocityProblem

    @classmethod
    def build(cls, config: AntarcticaConfig | None = None) -> "AntarcticaTest":
        config = config or AntarcticaConfig()
        if config.family == "greenland":
            geometry = greenland_geometry()
        else:
            geometry = antarctica_geometry(config.resolution_km)
        res_m = config.resolution_km * 1.0e3
        if config.footprint == "voronoi":
            # MALI's meshing path: MPAS Voronoi mesh -> dual triangulation
            # -> prismatic (wedge) extrusion
            from repro.mesh.voronoi import mpas_voronoi_mesh, triangle_footprint_from_voronoi

            vm = mpas_voronoi_mesh(geometry.mask, geometry.lx, geometry.ly, spacing=res_m)
            footprint = triangle_footprint_from_voronoi(vm)
        else:
            nx = max(4, int(round(geometry.lx / res_m)))
            ny = max(4, int(round(geometry.ly / res_m)))
            footprint = masked_quad_footprint(nx, ny, geometry.lx, geometry.ly, geometry.mask)
        mesh = extrude_footprint(footprint, geometry, config.num_layers)
        problem = StokesVelocityProblem(mesh, geometry, config.velocity)
        return cls(config=config, geometry=geometry, mesh=mesh, problem=problem)

    # ------------------------------------------------------------------
    def run(self, callback=None) -> VelocitySolution:
        return self.problem.solve(callback=callback)

    def reference_value(self) -> float | None:
        """Stored mean-velocity reference for this configuration."""
        if not REFERENCE_FILE.exists():
            return None
        table = json.loads(REFERENCE_FILE.read_text())
        return table.get(self.config.key)

    def store_reference(self, mean_velocity: float) -> None:
        table = {}
        if REFERENCE_FILE.exists():
            table = json.loads(REFERENCE_FILE.read_text())
        table[self.config.key] = mean_velocity
        REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    def check(self, solution: VelocitySolution) -> tuple[bool, float | None]:
        """Mean-solution regression check at :data:`CHECK_RTOL`.

        Returns (passed, reference); a missing reference returns (True,
        None) so first runs can bootstrap the table.
        """
        ref = self.reference_value()
        if ref is None:
            return True, None
        rel = abs(solution.mean_velocity - ref) / abs(ref)
        return rel <= CHECK_RTOL, ref


def run_antarctica_test(config: AntarcticaConfig | None = None, verbose: bool = False) -> VelocitySolution:
    """Convenience entry: build, solve, and regression-check."""
    test = AntarcticaTest.build(config)

    def cb(step, x, fnorm, lin):
        if verbose:
            print(f"  newton {step + 1}: |F| = {fnorm:.4e}  (gmres its = {lin.iterations})")

    sol = test.run(callback=cb if verbose else None)
    passed, ref = test.check(sol)
    sol.diagnostics["reference_mean_velocity"] = ref
    sol.diagnostics["regression_passed"] = passed
    if not passed:
        raise AssertionError(
            f"Antarctica regression failed: mean velocity {sol.mean_velocity!r} "
            f"vs reference {ref!r} (rtol {CHECK_RTOL})"
        )
    return sol
