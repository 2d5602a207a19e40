"""Ice-thickness evolution: dH/dt + div(H u_bar) = a_dot + b_dot (Eq. 2).

MALI couples the FO velocity solve to a mass-conservation equation for
the thickness.  We discretize it finite-volume style on the footprint:
each footprint element is a control volume, fluxes are first-order
upwind on shared edges, and the update is explicit Euler under a CFL
restriction.  This substrate closes the dynamic loop (velocity solve ->
thickness update -> new geometry) used by the transient example.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.planar import Footprint2D

__all__ = ["ThicknessEvolver", "CflViolationError"]


class CflViolationError(ValueError):
    """A requested ``dt`` exceeds the explicit-stepping CFL bound.

    Explicit upwind advection past its CFL limit does not fail loudly --
    it produces growing thickness oscillations that poison every later
    velocity solve.  The evolver therefore refuses the step with this
    typed error (carrying ``dt`` and ``dt_max``) so callers -- the
    transient engine's adaptive stepper above all -- can cap the step
    instead of integrating garbage.
    """

    def __init__(self, dt: float, dt_max: float):
        self.dt = float(dt)
        self.dt_max = float(dt_max)
        super().__init__(
            f"dt={self.dt:g} exceeds the CFL stability bound {self.dt_max:.6g}; "
            "cap the step (dt <= max_stable_dt(velocity)) or pass "
            "enforce_cfl=False to accept the oscillation risk explicitly"
        )


class ThicknessEvolver:
    """Explicit upwind FV solver for the thickness equation on a footprint."""

    def __init__(self, footprint: Footprint2D):
        self.footprint = footprint
        self.areas = footprint.elem_areas()
        self._build_edges()
        #: diagnostics of the most recent :meth:`step`: ``clipped_volume``
        #: is the (nonnegative) ice volume created by the ``H >= 0`` clip
        #: -- the exact correction a conservation audit must credit
        self.last_step_stats: dict = {}

    def _build_edges(self) -> None:
        fp = self.footprint
        k = fp.nodes_per_elem
        pairs = np.concatenate([fp.elems[:, [i, (i + 1) % k]] for i in range(k)], axis=0)
        owner = np.tile(np.arange(fp.num_elems), k)
        key = np.sort(pairs, axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        left = np.full(len(uniq), -1, dtype=np.int64)
        right = np.full(len(uniq), -1, dtype=np.int64)
        for e, o in zip(inv, owner):
            if left[e] < 0:
                left[e] = o
            else:
                right[e] = o
        interior = right >= 0
        self.edge_left = left[interior]
        self.edge_right = right[interior]
        nodes = uniq[interior]
        p0, p1 = fp.coords[nodes[:, 0]], fp.coords[nodes[:, 1]]
        dvec = p1 - p0
        self.edge_length = np.hypot(dvec[:, 0], dvec[:, 1])
        # normal pointing from left cell to right cell
        normal = np.stack([dvec[:, 1], -dvec[:, 0]], axis=1)
        normal /= self.edge_length[:, None]
        centers = fp.elem_centers()
        lr = centers[right[interior]] - centers[left[interior]]
        flip = np.sum(normal * lr, axis=1) < 0.0
        normal[flip] *= -1.0
        self.edge_normal = normal

    def max_stable_dt(self, velocity_cell: np.ndarray) -> float:
        """CFL bound: dt <= min over cells of area / (|u| * perimeter-ish)."""
        speed = np.hypot(velocity_cell[:, 0], velocity_cell[:, 1])
        vmax = float(speed.max())
        if vmax == 0.0:
            return np.inf
        length_scale = np.sqrt(self.areas.min())
        # a subnormal ``vmax`` overflows the quotient to inf, which is the
        # right answer (every dt is stable), so the overflow is not a warning
        with np.errstate(over="ignore"):
            return float(0.4 * length_scale / vmax)

    def step(
        self,
        thickness: np.ndarray,
        velocity_cell: np.ndarray,
        dt: float,
        smb: np.ndarray | float = 0.0,
        bmb: np.ndarray | float = 0.0,
        enforce_cfl: bool = True,
    ) -> np.ndarray:
        """Advance ``H`` by ``dt`` years.

        Parameters
        ----------
        thickness:
            (num_elems,) cell-centered thickness [m].
        velocity_cell:
            (num_elems, 2) depth-averaged velocity [m/yr].
        smb, bmb:
            Surface/basal mass balance [m/yr] (scalar or per cell).
        enforce_cfl:
            Refuse ``dt`` beyond the stability bound with a typed
            :class:`CflViolationError` (the default); explicit opt-out
            for callers that sub-cycle themselves.
        """
        fp = self.footprint
        thickness = np.asarray(thickness, dtype=np.float64)
        if thickness.shape != (fp.num_elems,):
            raise ValueError("thickness must be per footprint element")
        if velocity_cell.shape != (fp.num_elems, 2):
            raise ValueError("velocity must be (num_elems, 2)")
        if enforce_cfl:
            dt_max = self.max_stable_dt(velocity_cell)
            if dt > dt_max:
                raise CflViolationError(dt, dt_max)

        l, r = self.edge_left, self.edge_right
        u_edge = 0.5 * (velocity_cell[l] + velocity_cell[r])
        un = np.sum(u_edge * self.edge_normal, axis=1)  # normal speed, left->right
        h_up = np.where(un >= 0.0, thickness[l], thickness[r])
        flux = h_up * un * self.edge_length  # [m^3/yr] per edge

        dh = np.zeros(fp.num_elems)
        np.add.at(dh, l, -flux)
        np.add.at(dh, r, flux)
        dh /= self.areas

        h_unclipped = thickness + dt * (dh + np.asarray(smb) + np.asarray(bmb))
        h_new = np.maximum(h_unclipped, 0.0)
        self.last_step_stats = {
            "dt": float(dt),
            "clipped_volume": float(np.sum((h_new - h_unclipped) * self.areas)),
            "source_volume": float(
                dt * np.sum((np.asarray(smb) + np.asarray(bmb)) * self.areas)
            ),
        }
        return h_new

    def node_thickness(self, thickness: np.ndarray) -> np.ndarray:
        """Area-weighted cell->node thickness interpolation.

        The FV state is cell-centered but the extruded velocity mesh
        needs nodal columns; the weight of each incident cell is its
        footprint area, accumulated with ``np.add.at`` in element order
        so the interpolation is a deterministic pure function of the
        input (bitwise-resume safe).
        """
        fp = self.footprint
        thickness = np.asarray(thickness, dtype=np.float64)
        if thickness.shape != (fp.num_elems,):
            raise ValueError("thickness must be per footprint element")
        acc = np.zeros(fp.num_nodes)
        wt = np.zeros(fp.num_nodes)
        for j in range(fp.nodes_per_elem):
            np.add.at(acc, fp.elems[:, j], thickness * self.areas)
            np.add.at(wt, fp.elems[:, j], self.areas)
        return acc / wt

    def total_volume(self, thickness: np.ndarray) -> float:
        return float(np.sum(thickness * self.areas))
