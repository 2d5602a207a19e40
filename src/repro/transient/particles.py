"""Lagrangian particle tracking through the extruded velocity field.

IGM-style passive tracers: particles ride the horizontal FO velocity at
a fixed terrain-following height (the FO approximation has no vertical
velocity unknown, so ``zeta`` is a label, not a prognostic).  Velocity
at a particle is interpolated with inverse-distance weights over the
four nearest footprint nodes, each node contributing its column
velocity linearly interpolated in sigma -- cheap, smooth enough for
trajectories, and a pure function of ``(u, xy, zeta)`` so advection is
bitwise-reproducible across checkpoint/resume.

Advection is explicit midpoint RK2 (one velocity re-evaluation at the
half step), which tracks the curved flow around the domes far better
than forward Euler at the same cost class.  Particles that wander off
the footprint deactivate (frozen in place, excluded from further
advection) rather than extrapolating garbage velocities.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ParticleSet"]


class ParticleSet:
    """A set of passive tracers on a footprint (positions + fixed zeta)."""

    def __init__(
        self,
        footprint,
        xy: np.ndarray,
        zeta: np.ndarray,
        active: np.ndarray | None = None,
    ):
        self.footprint = footprint
        self.xy = np.array(xy, dtype=np.float64).reshape(-1, 2)
        self.zeta = np.array(zeta, dtype=np.float64).reshape(-1)
        if self.zeta.shape[0] != self.xy.shape[0]:
            raise ValueError("zeta must have one entry per particle")
        for name, a in (("xy", self.xy), ("zeta", self.zeta[:, None])):  # NaN passes every test
            bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
            if len(bad):
                raise ValueError(f"particle {bad[0]} has a non-finite {name}: {a[bad[0]]}")
        if np.any((self.zeta < 0.0) | (self.zeta > 1.0)):
            raise ValueError("zeta must lie in [0, 1]")
        self.active = (
            np.ones(len(self.xy), dtype=bool)
            if active is None
            else np.array(active, dtype=bool).reshape(-1)
        )
        if self.active.shape[0] != self.xy.shape[0]:
            raise ValueError("active must have one entry per particle")
        # off-footprint deactivation radius: a particle farther than this
        # from every footprint node has left the meshed ice
        areas = footprint.elem_areas()
        self._deactivate_radius = 1.5 * float(np.sqrt(areas.max()))

    def __len__(self) -> int:
        return len(self.xy)

    @property
    def num_active(self) -> int:
        return int(self.active.sum())

    # ------------------------------------------------------------------
    @classmethod
    def seed(
        cls,
        footprint,
        thickness_cell: np.ndarray,
        num_particles: int,
        seed: int = 7,
    ) -> "ParticleSet":
        """Deterministically seed particles, thickness-weighted.

        Cells are sampled with probability proportional to their ice
        volume (``H * area``) so tracers concentrate where the ice is,
        then jittered within the cell.  Everything flows from one
        ``default_rng(seed)``: the same scenario always seeds the same
        particles (a bitwise-resume and golden-baseline requirement).
        """
        if num_particles == 0:
            return cls(footprint, np.empty((0, 2)), np.empty((0,)))
        rng = np.random.default_rng(seed)
        areas = footprint.elem_areas()
        w = np.maximum(np.asarray(thickness_cell, dtype=np.float64), 0.0) * areas
        if w.sum() <= 0.0:
            w = areas  # no ice anywhere: fall back to uniform-by-area
        idx = rng.choice(footprint.num_elems, size=num_particles, p=w / w.sum())
        centers = footprint.elem_centers()
        jitter = rng.uniform(-0.25, 0.25, size=(num_particles, 2))
        xy = centers[idx] + jitter * np.sqrt(areas[idx])[:, None]
        zeta = rng.uniform(0.05, 0.95, size=num_particles)
        return cls(footprint, xy, zeta)

    # ------------------------------------------------------------------
    def _column_velocity(self, nodal3: np.ndarray) -> np.ndarray:
        """(nn2, levels, 2) per-column nodal velocity from a flat view."""
        nn2 = self.footprint.num_nodes
        levels = nodal3.shape[0] // nn2
        return nodal3.reshape(nn2, levels, 2)

    def velocity_at(self, xy: np.ndarray, zeta: np.ndarray, nodal3: np.ndarray) -> np.ndarray:
        """Horizontal velocity [m/yr] at (xy, zeta) from nodal 3D field.

        IDW over the 4 nearest footprint nodes; each node's column is
        first interpolated linearly in sigma at the particle's zeta.
        ``nodal3`` is the (num_3d_nodes, 2) nodal view of a solution.
        """
        xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        zeta = np.atleast_1d(np.asarray(zeta, dtype=np.float64))
        cols = self._column_velocity(nodal3)  # (nn2, levels, 2)
        levels = cols.shape[1]
        # linear sigma interpolation per column at each particle's zeta
        pos = np.clip(zeta, 0.0, 1.0) * (levels - 1)
        lo = np.minimum(pos.astype(np.int64), levels - 2)
        frac = pos - lo  # (np,)

        coords = self.footprint.coords  # (nn2, 2)
        d2 = self._dist2(xy)  # (np, nn2)
        k = min(4, coords.shape[0])
        near = np.argpartition(d2, k - 1, axis=1)[:, :k]  # (np, k)
        nd2 = np.take_along_axis(d2, near, axis=1)
        w = 1.0 / (nd2 + 1.0e-6)  # eps keeps exact-node hits finite
        w /= w.sum(axis=1, keepdims=True)

        v_lo = cols[near, lo[:, None], :]  # (np, k, 2)
        v_hi = cols[near, lo[:, None] + 1, :]
        v_node = v_lo + frac[:, None, None] * (v_hi - v_lo)
        return np.sum(w[:, :, None] * v_node, axis=1)  # (np, 2)

    def _dist2(self, xy: np.ndarray) -> np.ndarray:
        """``(np, nn2)`` squared distances to the footprint nodes, ``dx*dx + dy*dy``."""
        dx, dy = (c[None, :] - x[:, None] for c, x in zip(self.footprint.coords.T, xy.T))
        return dx * dx + dy * dy

    def _off_mesh(self, xy: np.ndarray) -> np.ndarray:
        """True where a position is beyond the deactivation radius."""
        return self._dist2(np.atleast_2d(xy)).min(axis=1) > self._deactivate_radius**2

    def advect(self, nodal3: np.ndarray, dt_years: float) -> None:
        """Midpoint-RK2 advection of all active particles by ``dt``.

        Inactive particles stay frozen; particles whose full step lands
        off the footprint take the step and then deactivate (their final
        resting position is part of the golden baseline).
        """
        if self.num_active == 0:
            return
        a = self.active
        x0 = self.xy[a]
        z = self.zeta[a]
        v1 = self.velocity_at(x0, z, nodal3)
        x_mid = x0 + 0.5 * dt_years * v1
        v2 = self.velocity_at(x_mid, z, nodal3)
        x1 = x0 + dt_years * v2
        self.xy[a] = x1
        off = self._off_mesh(x1)
        if np.any(off):
            idx = np.flatnonzero(a)[off]
            self.active[idx] = False
