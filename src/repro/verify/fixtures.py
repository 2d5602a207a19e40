"""Seeded fixtures proving the verification machinery detects defects.

A checker that has never caught anything is indistinguishable from one
that cannot.  Two deliberately-broken kernels keep the subsystem honest:

* :class:`RacyNodalScatter` -- the classic FEM assembly race: every cell
  scatters its contributions straight into a *shared* nodal array, so
  neighbouring cells read-modify-write the same slots.  The write-set
  analysis must flag the shared nodes, and the order-permutation check
  must surface bitwise divergence (float addition is not associative,
  and the cell values span enough magnitudes that reassociation is
  visible in the last bits).

* :class:`PerturbedStokesFOResid` -- the optimized Stokes kernel with a
  single stress coefficient nudged from ``2.0`` to ``1.9999``: race-free
  and order-independent, but numerically wrong, so only the
  differential oracle (variant vs reference) can catch it.

``python -m repro verify`` runs both as a detection selftest on every
invocation; ``--fixture racy|perturbed`` instead treats them as
production kernels so CI can assert the nonzero exit path.

The oracles' problems come from here too: :func:`antarctica` and
:func:`greenland_mesh` build a fresh problem or mesh on every call (an
oracle may mutate what it gets), and :func:`seeded_state` draws the
velocity an oracle evaluates its operators at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fields import StokesFields, make_stokes_fields
from repro.core.kernels import StokesFOResidOptimized
from repro.kokkos.view import DOUBLE, View

__all__ = [
    "RacyFields",
    "RacyNodalScatter",
    "make_racy_fields",
    "PerturbedStokesFOResid",
    "antarctica",
    "fill_stokes_fields",
    "greenland_mesh",
    "seeded_state",
    "stokes_fields_factory",
]


# ----------------------------------------------------------------------
# the racy fixture: shared-nodal-array scatter
# ----------------------------------------------------------------------


@dataclass
class RacyFields:
    """Views for the racy scatter: a 1-D chain of cells sharing nodes."""

    nodal: View  # (num_global_nodes,) -- the shared output
    cellval: View  # (num_cells, nodes_per_cell) -- per-cell contributions
    conn: np.ndarray  # (num_cells, nodes_per_cell) int connectivity

    @property
    def num_cells(self) -> int:
        return self.cellval.shape[0]

    @property
    def nodes_per_cell(self) -> int:
        return self.cellval.shape[1]

    def output_views(self) -> list[View]:
        return [self.nodal]


class RacyNodalScatter:
    """Cell-parallel scatter into shared nodal storage (intentional race).

    ``nodal[conn[cell, j]] += cellval[cell, j]`` is exactly the
    accumulation a correct Kokkos port must route through
    ``atomic_add`` or a coloring/gather pass; done naively over the
    cell index it is a write-write race on every shared node.
    """

    name = "RacyNodalScatter<fixture>"

    def __init__(self, fields):
        self.nodal = fields.nodal
        self.cellval = fields.cellval
        self.conn = fields.conn
        self.nodes_per_cell = int(fields.nodes_per_cell)

    def __call__(self, cell):
        for j in range(self.nodes_per_cell):
            n = int(self.conn[cell, j])
            self.nodal[n] = self.nodal[n] + self.cellval[cell, j]


def make_racy_fields(num_cells: int = 12, seed: int = 0) -> RacyFields:
    """A chain mesh: cell ``c`` touches nodes ``c .. c + 3``.

    Adjacent cells overlap on three of their four nodes, so almost
    every node has multiple writers.  Cell values are log-uniform over
    several decades so that summation order is visible bitwise.
    """
    rng = np.random.default_rng(seed)
    nodes_per_cell = 4
    num_nodes = num_cells + nodes_per_cell - 1
    conn = np.arange(num_cells)[:, None] + np.arange(nodes_per_cell)[None, :]
    sign = rng.choice([-1.0, 1.0], size=(num_cells, nodes_per_cell))
    mag = 10.0 ** rng.uniform(-6.0, 3.0, size=(num_cells, nodes_per_cell))
    return RacyFields(
        nodal=View("nodal", (num_nodes,), DOUBLE),
        cellval=View("cellval", (num_cells, nodes_per_cell), DOUBLE, data=sign * mag),
        conn=conn,
    )


# ----------------------------------------------------------------------
# the perturbed fixture: a wrong-but-deterministic kernel variant
# ----------------------------------------------------------------------


class PerturbedStokesFOResid(StokesFOResidOptimized):
    """Optimized Stokes kernel with one stress coefficient off by 5e-5.

    Models the realistic porting bug a race checker cannot see: the
    rewrite is still fused, local-accumulating and order-independent,
    but ``strs00`` uses ``1.9999 * u_x`` where the physics says ``2 u_x``.
    Only a differential oracle against the reference kernel catches it.
    """

    name = "StokesFOResid<LandIce_3D_Perturbed>"

    def __call__(self, cell):
        fields = self.fields
        Ugrad = self.Ugrad
        wGradBF = self.wGradBF
        wBF = self.wBF
        num_nodes = self.num_nodes

        res0 = [fields.zero(cell) for _ in range(num_nodes)]
        res1 = [fields.zero(cell) for _ in range(num_nodes)]

        for qp in range(self.numQPs):
            mu = self.muLandIce[cell, qp]
            strs00 = 2.0 * mu * (1.9999 * Ugrad[cell, qp, 0, 0] + Ugrad[cell, qp, 1, 1])
            strs11 = 2.0 * mu * (2.0 * Ugrad[cell, qp, 1, 1] + Ugrad[cell, qp, 0, 0])
            strs01 = mu * (Ugrad[cell, qp, 1, 0] + Ugrad[cell, qp, 0, 1])
            strs02 = mu * Ugrad[cell, qp, 0, 2]
            strs12 = mu * Ugrad[cell, qp, 1, 2]
            frc0 = self.force[cell, qp, 0]
            frc1 = self.force[cell, qp, 1]
            for node in range(num_nodes):
                res0[node] = res0[node] + (
                    strs00 * wGradBF[cell, node, qp, 0]
                    + strs01 * wGradBF[cell, node, qp, 1]
                    + strs02 * wGradBF[cell, node, qp, 2]
                    + frc0 * wBF[cell, node, qp]
                )
                res1[node] = res1[node] + (
                    strs01 * wGradBF[cell, node, qp, 0]
                    + strs11 * wGradBF[cell, node, qp, 1]
                    + strs12 * wGradBF[cell, node, qp, 2]
                    + frc1 * wBF[cell, node, qp]
                )

        for node in range(num_nodes):
            self.Residual[cell, node, 0] = res0[node]
            self.Residual[cell, node, 1] = res1[node]


# ----------------------------------------------------------------------
# deterministic field population (shared by oracles and race checks)
# ----------------------------------------------------------------------


def fill_stokes_fields(fields: StokesFields, seed: int = 0) -> StokesFields:
    """Plausible deterministic kernel inputs (the test-suite convention)."""
    rng = np.random.default_rng(seed)
    nc, nq, nn = fields.num_cells, fields.num_qps, fields.num_nodes

    def setv(view, arr):
        if view.scalar.is_fad:
            view.data.val[...] = arr
            view.data.dx[...] = rng.normal(size=arr.shape + (view.scalar.fad_dim,)) * 0.01
        else:
            view.data[...] = arr

    setv(fields.Ugrad, rng.normal(size=(nc, nq, 2, 3)) * 1e-3)
    setv(fields.muLandIce, rng.uniform(1e3, 1e5, size=(nc, nq)))
    setv(fields.force, rng.normal(size=(nc, nq, 2)) * 10.0)
    fields.wBF.data[...] = rng.uniform(0.1, 1.0, size=(nc, nn, nq))
    fields.wGradBF.data[...] = rng.normal(size=(nc, nn, nq, 3)) * 1e-3
    return fields


def stokes_fields_factory(
    num_cells: int = 6,
    mode: str = "residual",
    seed: int = 0,
    num_nodes: int = 8,
    num_qps: int = 8,
):
    """A zero-argument factory for identically-initialized Stokes fields."""

    def factory() -> StokesFields:
        fields = make_stokes_fields(num_cells, num_nodes=num_nodes, num_qps=num_qps, mode=mode)
        return fill_stokes_fields(fields, seed=seed)

    return factory


# ----------------------------------------------------------------------
# the problems the oracles solve
# ----------------------------------------------------------------------


def antarctica(resolution_km: float = 400.0, num_layers: int = 3, footprint: str = "quad",
               **velocity):
    """A freshly built :class:`~repro.app.AntarcticaTest` (``.mesh``,
    ``.geometry``, ``.problem``).  ``velocity`` holds the
    :class:`~repro.app.VelocityConfig` fields the oracle sets; the rest
    keep their defaults, so ``REPRO_OPERATOR_MODE`` reaches every problem
    built without an ``operator_mode``."""
    from repro.app import AntarcticaConfig, AntarcticaTest, VelocityConfig

    return AntarcticaTest.build(AntarcticaConfig(
        resolution_km=resolution_km, num_layers=num_layers, footprint=footprint,
        velocity=VelocityConfig(**velocity),
    ))


def greenland_mesh():
    """``(mesh, geometry)``: the golden 9 x 15 Greenland grid, 5 layers of
    hexahedra."""
    from repro.mesh import greenland_geometry
    from repro.mesh.extrude import extrude_footprint
    from repro.mesh.planar import masked_quad_footprint

    geo = greenland_geometry()
    return extrude_footprint(masked_quad_footprint(9, 15, geo.lx, geo.ly, geo.mask), geo, 5), geo


def seeded_state(problem, rng) -> np.ndarray:
    """A velocity of ``rng``'s normals times 10 m/yr, zero on the Dirichlet
    dofs: the state an oracle evaluates both sides' operators at."""
    u = rng.normal(size=problem.dofmap.num_dofs) * 10.0
    u[problem.bc_dofs] = 0.0
    return u
