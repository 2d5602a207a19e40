"""Golden-baseline diff tests (tier-1 regression gate).

Compares fresh solves and simulator runs against the ``.npz`` baselines
in ``tests/goldens/`` (regenerate with ``tools/regen_goldens.py`` after
an INTENTIONAL numerics change, never to silence a failure).

Tolerance rationale
-------------------
* Velocity fields (``u``): the whole pipeline is deterministic numpy,
  so same-platform reruns are bitwise; across BLAS builds the GMRES
  inner products can differ in the last bits and Newton amplifies that
  up to its own convergence tolerance.  We allow ``rtol=1e-5`` with
  ``atol = 1e-8 * max|u|`` -- anything beyond the solver's nonlinear
  tolerance is a real numerics change.
* Scalar diagnostics (mean/max/surface velocity): averages of the
  field, same argument, ``rtol=1e-6``.
* ``residual_norms[0]``: pure assembly arithmetic (no iterative solve
  in the initial residual), so ``rtol=1e-12``.  Later norms sit at the
  solver tolerance floor where tiny perturbations are relatively huge,
  so only their count and the final reduction factor are pinned.
* Table III speedups: closed-form machine-model arithmetic with no
  linear algebra at all -- ``rtol=1e-12`` (bitwise in practice, slack
  only for libm variation).
"""

from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

U_RTOL = 1.0e-5
U_ATOL_FACTOR = 1.0e-8  # scaled by max|u_golden|
SCALAR_RTOL = 1.0e-6
ASSEMBLY_RTOL = 1.0e-12
MODEL_RTOL = 1.0e-12


def _load(name: str):
    path = GOLDEN_DIR / f"{name}.npz"
    if not path.exists():
        pytest.fail(f"missing golden {path}; run tools/regen_goldens.py")
    return np.load(path, allow_pickle=False)


def _check_velocity_solution(golden, sol):
    u_ref = golden["u"]
    atol = U_ATOL_FACTOR * float(np.max(np.abs(u_ref)))
    np.testing.assert_allclose(sol.u, u_ref, rtol=U_RTOL, atol=atol)
    for key in ("mean_velocity", "max_velocity", "surface_mean_velocity"):
        np.testing.assert_allclose(getattr(sol, key), float(golden[key]), rtol=SCALAR_RTOL)
    norms_ref = golden["residual_norms"]
    norms = np.asarray(sol.newton.residual_norms)
    assert len(norms) == len(norms_ref), "Newton step count changed"
    np.testing.assert_allclose(norms[0], norms_ref[0], rtol=ASSEMBLY_RTOL)
    # the final reduction factor is pinned to within 10x: the last norm
    # sits at the solver-tolerance floor, so only its order matters
    red, red_ref = norms[-1] / norms[0], norms_ref[-1] / norms_ref[0]
    assert red < 10.0 * red_ref, f"converged less deeply: {red:.2e} vs golden {red_ref:.2e}"


class TestAntarcticaGolden:
    def test_velocity_field_matches(self):
        from repro.app import AntarcticaConfig, AntarcticaTest

        golden = _load("antarctica")
        config = AntarcticaConfig(
            resolution_km=float(golden["resolution_km"]),
            num_layers=int(golden["num_layers"]),
        )
        sol = AntarcticaTest.build(config).run()
        assert sol.u.shape == golden["u"].shape, "mesh/dof layout changed; regen goldens"
        _check_velocity_solution(golden, sol)


class TestGreenlandGolden:
    def test_velocity_field_matches(self):
        from repro.app.config import VelocityConfig
        from repro.app.velocity_solver import StokesVelocityProblem
        from repro.mesh import greenland_geometry
        from repro.mesh.extrude import extrude_footprint
        from repro.mesh.planar import masked_quad_footprint

        golden = _load("greenland")
        nx, ny, nlayers = (int(v) for v in golden["grid"])
        geo = greenland_geometry()
        fp = masked_quad_footprint(nx, ny, geo.lx, geo.ly, geo.mask)
        mesh = extrude_footprint(fp, geo, nlayers)
        sol = StokesVelocityProblem(mesh, geo, VelocityConfig()).solve()
        assert sol.u.shape == golden["u"].shape, "mesh/dof layout changed; regen goldens"
        _check_velocity_solution(golden, sol)


class TestTable3Golden:
    def test_speedups_match(self):
        from repro.perf.paper import paper_profiles

        golden = _load("table3")
        profiles = paper_profiles()
        for i, (gpu, mode) in enumerate(zip(golden["gpu"], golden["mode"])):
            b = profiles[("baseline", str(mode), str(gpu))]
            o = profiles[("optimized", str(mode), str(gpu))]
            np.testing.assert_allclose(
                b.time_s, golden["baseline_time_s"][i], rtol=MODEL_RTOL, err_msg=f"{gpu} {mode}"
            )
            np.testing.assert_allclose(
                o.time_s, golden["optimized_time_s"][i], rtol=MODEL_RTOL, err_msg=f"{gpu} {mode}"
            )
            np.testing.assert_allclose(
                b.time_s / o.time_s, golden["speedup"][i], rtol=MODEL_RTOL, err_msg=f"{gpu} {mode}"
            )

    def test_optimization_actually_pays(self):
        """The golden itself must encode a real speedup (sanity on the fixture)."""
        golden = _load("table3")
        assert np.all(golden["speedup"] > 1.5)
