"""Field containers for the ``StokesFOResid`` kernels.

A :class:`StokesFields` bundles the six views of the paper's kernel
(Fig. 2): ``Ugrad``, ``muLandIce``, ``force``, ``wBF``, ``wGradBF`` and
``Residual``.  For the Jacobian evaluation the solution-dependent views
carry ``SFad`` scalars, each view its own spec: the device program
(:func:`make_stokes_fields`) is ``SFad(16)`` throughout (8 nodes x 2
velocity components); the host production sweep feeds ``Ugrad`` and
``muLandIce`` as ``SFad(6)`` seeded at the quadrature point plus the
``seed`` operand.  The basis views stay plain doubles (Albany's
``MeshScalarT``).

:class:`TraceFields` exposes the same attribute surface backed by
recording views, so the identical kernel body yields the per-thread
access program for the GPU simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff.sfad import SFad
from repro.kokkos.instrument import TraceContext, TraceView
from repro.kokkos.view import DOUBLE, ScalarSpec, View, fad_spec

__all__ = ["StokesFields", "TraceFields", "make_stokes_fields", "JACOBIAN_FAD_SIZE"]

#: Derivative components of the Jacobian evaluation: 8 nodes x 2 dofs.
JACOBIAN_FAD_SIZE = 16


@dataclass
class StokesFields:
    """Numeric views consumed by the Stokes residual/Jacobian kernel.

    In Albany's Jacobian evaluation the weighted-basis views carry the
    Fad scalar type too (``MeshScalarT``), which is why the paper's
    Jacobian kernel moves ~16x the Residual's data.  Numerically those
    derivative components are identically zero, so the host storage
    keeps them as plain doubles; ``mesh_scalar`` records the *layout*
    scalar type the GPU data-movement model must charge for.
    """

    Ugrad: View  # (nc, nqp, 2, 3), ScalarT
    muLandIce: View  # (nc, nqp), ScalarT
    force: View  # (nc, nqp, 2), ScalarT
    wBF: View  # (nc, nn, nqp), MeshScalarT (stored double, zero derivs)
    wGradBF: View  # (nc, nn, nqp, 3), MeshScalarT
    Residual: View  # (nc, nn, 2), ScalarT
    scalar: ScalarSpec  # the Residual's
    mesh_scalar: ScalarSpec = DOUBLE
    #: geometry-only operands of the host lowering: ``[wGradBF | wBF]`` as
    #: ``(nc, nn, nqp, 4)`` (``None``: packed per launch) and ``grad_bf``
    #: ``(nc, nn, nqp, 3)``, present when the input derivatives are w.r.t.
    #: ``Ugrad`` at the qp (``None``: they are the Residual's)
    geom: np.ndarray | None = None
    seed: np.ndarray | None = None

    @property
    def num_cells(self) -> int:
        return self.Ugrad.shape[0]

    @property
    def num_qps(self) -> int:
        return self.Ugrad.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.wBF.shape[1]

    def zero(self, cell):
        """A zero of the kernel scalar type (broadcasts over the cell set)."""
        if self.scalar.is_fad:
            n = self.scalar.fad_dim
            return SFad(n)(0.0, np.zeros(n))
        return 0.0

    def views(self) -> list[View]:
        return [self.Ugrad, self.muLandIce, self.force, self.wBF, self.wGradBF, self.Residual]

    def output_views(self) -> list[View]:
        return [self.Residual]


class TraceFields:
    """Trace-mode twin of :class:`StokesFields` (same attribute names)."""

    def __init__(self, fields: StokesFields, ctx: TraceContext | None = None):
        self.ctx = ctx or TraceContext()
        self.scalar = fields.scalar
        for name in ("Ugrad", "muLandIce", "force", "Residual"):
            setattr(self, name, TraceView(self.ctx, getattr(fields, name)))
        # basis views trace with their MeshScalarT layout (Fad for the
        # Jacobian), even though host numerics store them as doubles
        for name in ("wBF", "wGradBF"):
            tv = TraceView(self.ctx, getattr(fields, name))
            tv.scalar = fields.mesh_scalar
            setattr(self, name, tv)
        self._num_nodes = fields.num_nodes
        self._num_qps = fields.num_qps

    @property
    def num_cells(self) -> int:
        return 1

    @property
    def num_qps(self) -> int:
        return self._num_qps

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def zero(self, cell):
        return self.ctx.scalar(self.scalar.fad_dim)


def make_stokes_fields(
    num_cells: int,
    num_nodes: int = 8,
    num_qps: int = 8,
    mode: str = "residual",
) -> StokesFields:
    """Allocate the kernel's views for ``mode`` in {"residual", "jacobian"}.

    Jacobian mode gives the solution-dependent views ``SFad(2 *
    num_nodes)`` scalars, multiplying their storage by ``2*num_nodes + 1``
    (the 17x data-volume amplification of the paper's Jacobian kernel).
    """
    if mode == "residual":
        scalar = DOUBLE
    elif mode == "jacobian":
        scalar = fad_spec(2 * num_nodes)
    else:
        raise ValueError(f"unknown kernel mode {mode!r}")
    mesh_scalar = scalar if mode == "jacobian" else DOUBLE
    return StokesFields(
        mesh_scalar=mesh_scalar,
        Ugrad=View("Ugrad", (num_cells, num_qps, 2, 3), scalar),
        muLandIce=View("muLandIce", (num_cells, num_qps), scalar),
        force=View("force", (num_cells, num_qps, 2), scalar),
        wBF=View("wBF", (num_cells, num_nodes, num_qps), DOUBLE),
        wGradBF=View("wGradBF", (num_cells, num_nodes, num_qps, 3), DOUBLE),
        Residual=View("Residual", (num_cells, num_nodes, 2), scalar),
        scalar=scalar,
    )
