"""Golden-trajectory regression tests for the transient scenario library.

Each golden (``tests/goldens/transient_<scenario>.npz``, regenerated
with ``python tools/regen_goldens.py --transient``) stores the final
thickness, the volume time-series, the Newton iteration counts and the
particle end positions of a truncated (6-step) run.  The stored
``scenario_digest`` must match the live library entry: a knob change
that silently redefines a scenario fails loudly instead of comparing
incompatible trajectories.

Tolerance rationale -- the trajectories are deterministic for a fixed
operator mode, but tier-1 also runs under ``REPRO_OPERATOR_MODE=
matrix-free`` (a different operator application, different roundoff).
Measured assembled-vs-matrix-free drift over the 6-step goldens (with
the velocity predictor and the forcing rule of
``repro.solvers.newton.forcing_term``, as before either): thickness
<= 2e-16 relative, volumes bitwise, particle positions <= 5e-10 m
absolute, iteration counts identical.  Tolerances sit 3-6 orders above
those measurements, far below any physically meaningful change:

* ``H_RTOL = 1e-12``  (measured 1e-16; thickness is O(1e3) m)
* ``VOLUME_RTOL = 1e-12``  (measured 0; volume is O(1e16) m^3)
* ``PARTICLE_ATOL = 1e-4`` m  (measured 1e-10; displacements are O(1e4) m)
* Newton iteration counts and particle active masks compare exactly.

They are not loose enough to absorb a change of the Newton solve's
initial guess: each velocity then converges to a different point inside
the same ``tol_abs``.  The damped predictor moved thickness by up to
3.2e-9 of scale, particles by 7e-10 and volumes by 4e-11, and changed
the Newton counts of ``antarctica-retreat`` and ``greenland-ramp``; such
a change regenerates the goldens on purpose (DESIGN.md section 7).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.transient import TransientEngine, get_scenario

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

GOLDEN_STEPS = 6  # tools/regen_goldens.py TRANSIENT_GOLDEN_STEPS
H_RTOL = 1.0e-12
VOLUME_RTOL = 1.0e-12
PARTICLE_ATOL = 1.0e-4  # meters

SCENARIOS = [
    "antarctica-closed",
    "antarctica-retreat",
    "greenland-ramp",
    "shelf-collapse",
]


@pytest.mark.parametrize("name", SCENARIOS)
def test_transient_trajectory_matches_golden(name):
    path = GOLDEN_DIR / f"transient_{name}.npz"
    assert path.exists(), (
        f"missing golden {path.name}; run: "
        "PYTHONPATH=src python tools/regen_goldens.py --transient"
    )
    golden = np.load(path, allow_pickle=False)

    scenario = get_scenario(name).with_steps(GOLDEN_STEPS)
    assert str(golden["scenario_digest"]) == scenario.digest, (
        f"golden for {name!r} was generated from a different scenario "
        "definition; regenerate it (and review the drift) after an "
        "intentional scenario change"
    )

    result = TransientEngine(scenario).run()

    h_scale = float(np.max(np.abs(golden["thickness"])))
    np.testing.assert_allclose(
        result.thickness, golden["thickness"], rtol=0.0, atol=H_RTOL * h_scale
    )
    np.testing.assert_allclose(
        np.asarray(result.volumes), golden["volumes"], rtol=VOLUME_RTOL, atol=0.0
    )
    np.testing.assert_allclose(
        result.particles.xy, golden["particles_xy"], rtol=0.0, atol=PARTICLE_ATOL
    )
    assert np.array_equal(result.particles.active, golden["particles_active"])
    assert np.array_equal(
        np.asarray(result.newton_iterations, dtype=np.int64),
        golden["newton_iterations"],
    ), "Newton iteration trajectory changed: warm-start behavior drifted"
