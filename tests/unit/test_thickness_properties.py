"""Property tests of the thickness evolver (the transient engine's core).

Three properties the engine's acceptance gates lean on, checked over
generated inputs rather than one trajectory:

* **conservation** -- with zero SMB/BMB, fluxes live on interior edges
  only and every edge's contribution telescopes (leaves the left cell,
  enters the right), so total volume is invariant to roundoff for ANY
  thickness and velocity field under the CFL bound;
* **monotonicity** -- first-order upwind under the CFL bound is a
  positive scheme: for a uniform (discretely divergence-free) velocity
  an interior cell's update is a convex combination of old values, so
  no new interior maxima appear and thickness stays nonnegative.
  Boundary cells are excluded deliberately: the closed (no-flux)
  boundary makes ice pile up against the downstream wall, which is
  correct physics, not an upwind defect;
* **typed CFL refusal** -- any dt beyond the stability bound raises
  :class:`~repro.physics.thickness.CflViolationError` carrying both dt
  and the bound (the adaptive stepper's contract), and the explicit
  ``enforce_cfl=False`` opt-out suppresses it.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mesh.planar import quad_footprint
from repro.physics import CflViolationError, ThicknessEvolver

NX, NY = 6, 5  # small closed footprint; every boundary edge has no flux
FOOTPRINT = quad_footprint(NX, NY, 6.0e5, 5.0e5)
NE = FOOTPRINT.num_elems

thickness_fields = hnp.arrays(
    np.float64,
    (NE,),
    elements=st.floats(0.0, 3000.0, allow_nan=False, allow_infinity=False),
)
velocity_fields = hnp.arrays(
    np.float64,
    (NE, 2),
    elements=st.floats(-400.0, 400.0, allow_nan=False, allow_infinity=False),
)


def _interior_cells(evolver: ThicknessEvolver) -> np.ndarray:
    """Cells with a full set of interior edges (no no-flux wall)."""
    counts = np.zeros(evolver.footprint.num_elems, dtype=np.int64)
    np.add.at(counts, evolver.edge_left, 1)
    np.add.at(counts, evolver.edge_right, 1)
    return counts == evolver.footprint.nodes_per_elem


@given(h=thickness_fields, v=velocity_fields, frac=st.floats(0.05, 0.95))
def test_zero_source_step_conserves_total_volume(h, v, frac):
    """Interior-edge upwind fluxes telescope: volume is an invariant."""
    evolver = ThicknessEvolver(FOOTPRINT)
    dt_max = evolver.max_stable_dt(v)
    dt = frac * dt_max if np.isfinite(dt_max) else 1.0e3
    h_new = evolver.step(h, v, dt)
    v0, v1 = evolver.total_volume(h), evolver.total_volume(h_new)
    # the clip H >= 0 may legitimately create volume for pathological
    # generated fields; the evolver accounts for it exactly, so the
    # conservation identity is V1 = V0 + clipped
    clipped = evolver.last_step_stats["clipped_volume"]
    scale = max(abs(v0), 1.0)
    assert abs(v1 - (v0 + clipped)) <= 1.0e-12 * scale


@given(
    h=thickness_fields,
    vx=st.floats(-300.0, 300.0, allow_nan=False),
    vy=st.floats(-300.0, 300.0, allow_nan=False),
    frac=st.floats(0.05, 0.95),
)
def test_uniform_advection_is_monotone(h, vx, vy, frac):
    """Upwind + CFL: no new interior maxima, no negative thickness."""
    evolver = ThicknessEvolver(FOOTPRINT)
    v = np.tile([vx, vy], (NE, 1))
    dt_max = evolver.max_stable_dt(v)
    dt = frac * dt_max if np.isfinite(dt_max) else 1.0e3
    h_new = evolver.step(h, v, dt)
    assert np.all(h_new >= 0.0)
    hi = h.max()
    interior = _interior_cells(evolver)
    assert h_new[interior].max() <= hi + 1.0e-9 * max(hi, 1.0)


@given(v=velocity_fields, factor=st.floats(1.001, 100.0))
def test_cfl_violation_raises_typed_error(v, factor):
    """dt past the bound refuses with a typed, self-describing error."""
    evolver = ThicknessEvolver(FOOTPRINT)
    dt_max = evolver.max_stable_dt(v)
    if not np.isfinite(dt_max):
        return  # zero velocity: every dt is stable
    h = np.full(NE, 100.0)
    dt_bad = factor * dt_max
    with pytest.raises(CflViolationError) as exc:
        evolver.step(h, v, dt_bad)
    assert isinstance(exc.value, ValueError)  # old except ValueError still works
    assert exc.value.dt == dt_bad
    assert exc.value.dt_max == dt_max
    # the explicit opt-out (sub-cycling callers) takes the step anyway
    evolver.step(h, v, dt_bad, enforce_cfl=False)
