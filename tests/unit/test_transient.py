"""Unit tests of the transient building blocks (no velocity solves).

Particles, checkpoints, the cell->node interpolation and the vertical
re-extrusion are all pure numpy; everything here runs in milliseconds
and pins the determinism contracts the engine's bitwise-resume
guarantee is assembled from.
"""

import dataclasses

import numpy as np
import pytest

from repro.mesh.extrude import extrude_footprint
from repro.mesh.geometry import antarctica_geometry
from repro.mesh.planar import masked_quad_footprint, quad_footprint
from repro.physics import ThicknessEvolver
from repro.transient import (
    SCENARIOS,
    ParticleSet,
    TransientCheckpoint,
    TransientScenario,
    get_scenario,
)
from repro.transient.engine import PREDICTOR_THETA, TransientResult, warm_start_guess


@pytest.fixture(scope="module")
def footprint():
    return quad_footprint(6, 5, 6.0e5, 5.0e5)


def _uniform_nodal3(footprint, levels, vx, vy):
    """A constant (vx, vy) nodal velocity on the extruded node set."""
    nn3 = footprint.num_nodes * levels
    out = np.empty((nn3, 2))
    out[:, 0] = vx
    out[:, 1] = vy
    return out


class TestParticles:
    def test_seed_is_deterministic(self, footprint):
        h = np.linspace(100.0, 2000.0, footprint.num_elems)
        a = ParticleSet.seed(footprint, h, 32, seed=11)
        b = ParticleSet.seed(footprint, h, 32, seed=11)
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.zeta, b.zeta)
        c = ParticleSet.seed(footprint, h, 32, seed=12)
        assert not np.array_equal(a.xy, c.xy)

    def test_seed_weights_by_ice_volume(self, footprint):
        # all the ice in one cell -> every particle lands in/near it
        h = np.zeros(footprint.num_elems)
        h[7] = 1000.0
        p = ParticleSet.seed(footprint, h, 16, seed=3)
        center = footprint.elem_centers()[7]
        spread = np.sqrt(footprint.elem_areas()[7])
        assert np.all(np.abs(p.xy - center) <= 0.5 * spread)

    def test_uniform_field_interpolates_exactly(self, footprint):
        p = ParticleSet.seed(footprint, np.full(footprint.num_elems, 500.0), 8, seed=5)
        nodal = _uniform_nodal3(footprint, levels=4, vx=40.0, vy=-25.0)
        v = p.velocity_at(p.xy, p.zeta, nodal)
        assert np.allclose(v, [40.0, -25.0], rtol=0.0, atol=1.0e-9)

    def test_rk2_advection_in_uniform_field_is_exact(self, footprint):
        p = ParticleSet.seed(footprint, np.full(footprint.num_elems, 500.0), 8, seed=5)
        x0 = p.xy.copy()
        nodal = _uniform_nodal3(footprint, levels=4, vx=30.0, vy=10.0)
        p.advect(nodal, dt_years=2.0)
        # both RK2 stages see the same velocity: displacement is dt * v
        assert np.allclose(p.xy - x0, [60.0, 20.0], rtol=0.0, atol=1.0e-6)

    def test_off_mesh_particle_deactivates_and_freezes(self, footprint):
        xy = np.array([[3.0e5, 2.5e5], [50.0e6, 50.0e6]])  # second is far away
        p = ParticleSet(footprint, xy, np.array([0.5, 0.5]))
        nodal = _uniform_nodal3(footprint, levels=4, vx=10.0, vy=0.0)
        p.advect(nodal, dt_years=1.0)
        assert p.active[0] and not p.active[1]
        frozen = p.xy[1].copy()
        p.advect(nodal, dt_years=1.0)  # inactive: stays exactly put
        assert np.array_equal(p.xy[1], frozen)
        assert p.num_active == 1

    def test_zeta_validated(self, footprint):
        with pytest.raises(ValueError, match="zeta"):
            ParticleSet(footprint, np.zeros((1, 2)), np.array([1.5]))

    @pytest.mark.parametrize(
        "name,xy,zeta",
        [
            ("xy", [[3.0e5, 2.5e5], [np.nan, 1.0e5], [1.0, np.inf]], [0.5, 0.5, 0.5]),
            ("xy", [[3.0e5, 2.5e5], [np.inf, 1.0e5], [1.0, 1.0]], [0.5, 0.5, 0.5]),
            ("zeta", [[3.0e5, 2.5e5], [1.0e5, 1.0e5], [1.0, 1.0]], [0.5, np.nan, np.nan]),
        ],
    )
    def test_non_finite_particle_is_refused_by_index(self, footprint, name, xy, zeta):
        """A NaN passes ``zeta``'s range check and the off-mesh test alike,
        so it would stay active forever: refused at construction (which a
        checkpoint resume goes through too), naming the first one."""
        with pytest.raises(ValueError, match=f"particle 1 has a non-finite {name}"):
            ParticleSet(footprint, np.array(xy), np.array(zeta))

    def test_node_distances_are_the_two_term_sum(self, footprint):
        """``dx*dx + dy*dy`` is the same sum as reducing a ``(np, nn, 2)``
        squared-difference array: positions and masks do not move."""
        rng = np.random.default_rng(4)
        p = ParticleSet.seed(footprint, np.full(footprint.num_elems, 500.0), 64, seed=2)
        for xy in (p.xy, rng.normal(size=(64, 2)) * 4.0e5 + 3.0e5):
            full = np.sum((footprint.coords[None, :, :] - xy[:, None, :]) ** 2, axis=2)
            assert np.array_equal(p._dist2(xy), full)


class TestTransientCheckpoint:
    # corruption / truncation / atomic-write cases: tests/unit/test_store.py
    def _ckpt(self) -> TransientCheckpoint:
        rng = np.random.default_rng(0)
        return TransientCheckpoint(
            step=7,
            t_years=350.0,
            tol_abs=2.4e7,
            thickness=rng.uniform(0.0, 3000.0, 40),
            u=rng.normal(size=200),
            u_before=rng.normal(size=200),
            particles_xy=rng.uniform(0.0, 1.0e6, (16, 2)),
            particles_zeta=rng.uniform(0.0, 1.0, 16),
            particles_active=rng.uniform(size=16) > 0.2,
            scenario_digest="abc123",
            volumes=[1.0e16, 1.0e16],
            times=[0.0, 50.0],
            dts=[50.0],
            newton_iterations=[8],
        )

    def test_save_load_roundtrip_is_bitwise(self, tmp_path):
        ckpt = self._ckpt()
        path = ckpt.save(tmp_path / "transient")
        assert path.suffix == ".npz" and path.exists()
        back = TransientCheckpoint.load(path)
        assert back.step == 7 and back.t_years == 350.0 and back.tol_abs == 2.4e7
        assert np.array_equal(back.thickness, ckpt.thickness)
        assert np.array_equal(back.u, ckpt.u)
        assert np.array_equal(back.u_before, ckpt.u_before)
        assert np.array_equal(back.particles_xy, ckpt.particles_xy)
        assert np.array_equal(back.particles_active, ckpt.particles_active)
        assert back.scenario_digest == "abc123"
        assert back.volumes == ckpt.volumes and back.dts == ckpt.dts
        assert back.digest == ckpt.digest

    def test_an_empty_u_before_roundtrips(self, tmp_path):
        """What a checkpoint taken after the cold step holds."""
        ckpt = dataclasses.replace(self._ckpt(), u_before=np.empty(0))
        back = TransientCheckpoint.load(ckpt.save(tmp_path / "cold"))
        assert back.u_before.shape == (0,) and back.u_before.dtype == np.float64
        assert back.digest == ckpt.digest


class TestVelocityPredictor:
    """The warm start's rule, on plain arrays."""

    def test_the_first_warm_step_starts_from_the_last_velocity(self):
        u_prev = np.array([1.0, -2.0, 3.0])
        assert warm_start_guess(u_prev, np.empty(0), [50.0]) is u_prev

    def test_equal_steps_move_half_the_last_change(self):
        u_prev, u_before = np.array([10.0, -4.0]), np.array([6.0, -2.0])
        guess = warm_start_guess(u_prev, u_before, [50.0, 50.0])
        assert np.array_equal(guess, [12.0, -5.0])
        assert PREDICTOR_THETA == 0.5

    def test_the_change_scales_with_the_dt_ratio(self):
        """Half the step size ahead, half the extrapolation; the guess
        reads only the last two accepted steps."""
        u_prev, u_before = np.array([10.0, -4.0]), np.array([6.0, -2.0])
        half = warm_start_guess(u_prev, u_before, [99.0, 40.0, 20.0])
        double = warm_start_guess(u_prev, u_before, [20.0, 40.0])
        assert np.array_equal(half, [11.0, -4.5])
        assert np.array_equal(double, [14.0, -6.0])
        assert np.array_equal(u_prev, [10.0, -4.0]) and np.array_equal(u_before, [6.0, -2.0])


class TestVolumeDrift:
    @staticmethod
    def _result(volumes):
        empty = np.empty(0)
        return TransientResult(
            scenario=get_scenario("antarctica-closed"), thickness=empty, u=empty,
            u_before=empty, particles=None, volumes=volumes, times=[], dts=[],
            newton_iterations=[], warm_started=[], tol_abs=0.0,
        )

    def test_is_the_largest_relative_departure(self):
        assert self._result([4.0, 5.0, 2.0, 4.0]).volume_drift == 0.5

    @pytest.mark.parametrize(
        "volumes",
        [[1.0, np.nan], [1.0, np.nan, 1.0], [np.nan, 1.0], [1.0, np.inf], [1.0, 1.0, -np.inf]],
    )
    def test_a_non_finite_volume_fails_the_conservation_gate(self, volumes):
        """A NaN after a finite volume must not drop out of the maximum
        (Python's ``max`` drops it): the drift is non-finite and fails
        the ``transient-closed-budget`` oracle's drift bound."""
        from repro.verify.oracles import drift_divergences

        result = self._result(volumes)
        assert not np.isfinite(result.volume_drift)
        assert [d.name for d in drift_divergences(result)] == ["volume drift"]


class TestScenarios:
    def test_library_digests_are_distinct(self):
        digests = {sc.digest for sc in SCENARIOS.values()}
        assert len(digests) == len(SCENARIOS)

    def test_digest_ignores_name_but_not_numbers(self):
        a = get_scenario("antarctica-closed")
        renamed = dataclasses.replace(a, name="other", description="x")
        assert renamed.digest == a.digest
        assert a.with_steps(a.num_steps + 1).digest != a.digest

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="antarctica-closed"):
            get_scenario("nope")

    def test_validation(self):
        with pytest.raises(ValueError, match="forcing"):
            TransientScenario(name="x", forcing="melt-everything")
        with pytest.raises(ValueError, match="family"):
            TransientScenario(name="x", family="mars")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_steps", 2.5), ("num_steps", True), ("num_steps", 0), ("num_steps", "3"),
            ("num_layers", 2.5), ("num_layers", 0),
            ("num_particles", True), ("num_particles", -1),
            ("particle_seed", 1.5), ("particle_seed", -1),
            ("resolution_km", -5.0), ("resolution_km", 0.0), ("resolution_km", float("inf")),
            ("resolution_km", True), ("resolution_km", "400"),
            ("forcing_amplitude", float("nan")), ("forcing_amplitude", float("-inf")),
        ],
    )
    def test_a_value_no_run_can_take_is_refused(self, field, value):
        """Refused at construction, not in the engine build or ``range()``."""
        with pytest.raises(ValueError, match=field):
            TransientScenario(name="x", **{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(get_scenario("antarctica-retreat"), **{field: value})

    def test_whole_numbers_are_one_experiment(self):
        """``400`` and ``400.0``, ``3`` and ``3.0``: stored alike, one digest."""
        a = TransientScenario(name="a", resolution_km=400, num_steps=3.0, forcing_amplitude=2)
        b = TransientScenario(name="b", resolution_km=400.0, num_steps=3, forcing_amplitude=2.0)
        assert a.digest == b.digest
        assert (type(a.resolution_km), type(a.num_steps), type(a.forcing_amplitude)) == (
            float, int, float,
        )
        with pytest.raises(ValueError, match="num_steps"):
            a.with_steps(2.5)


class TestGeometryCoupling:
    def test_node_thickness_preserves_uniform_fields(self, footprint):
        evolver = ThicknessEvolver(footprint)
        hn = evolver.node_thickness(np.full(footprint.num_elems, 1234.5))
        assert np.allclose(hn, 1234.5, rtol=0.0, atol=1.0e-9)

    def test_update_columns_moves_only_z(self):
        geo = antarctica_geometry()
        fp = masked_quad_footprint(8, 8, geo.lx, geo.ly, geo.mask)
        mesh = extrude_footprint(fp, geo, 4)
        xy_before = mesh.coords[:, :2].copy()
        elems_before = mesh.elems  # same object must survive
        h2 = mesh.thickness2d * 0.9
        s2 = mesh.surface2d - 0.1 * mesh.thickness2d
        mesh.update_columns(h2, s2)
        assert np.array_equal(mesh.coords[:, :2], xy_before)
        assert mesh.elems is elems_before
        assert np.array_equal(mesh.thickness2d, np.maximum(h2, 10.0))
        # column endpoints honor sigma: base at s - h, top at s
        base = mesh.coords[mesh.basal_nodes(), 2]
        top = mesh.coords[mesh.surface_nodes(), 2]
        assert np.allclose(top - base, mesh.thickness2d)
        assert np.allclose(top, mesh.surface2d)

    def test_update_columns_rejects_degenerate_and_bad_shapes(self):
        geo = antarctica_geometry()
        fp = masked_quad_footprint(8, 8, geo.lx, geo.ly, geo.mask)
        mesh = extrude_footprint(fp, geo, 3)
        with pytest.raises(ValueError, match="per footprint node"):
            mesh.update_columns(mesh.thickness2d[:-1], mesh.surface2d[:-1])
        # a zero-thickness column is floored, not degenerate
        h2 = np.zeros_like(mesh.thickness2d)
        mesh.update_columns(h2, mesh.surface2d)
        assert np.all(mesh.thickness2d == 10.0)
