"""HostVector lowering of the optimized ``StokesFOResid`` listing.

The Fig. 2 listing in :mod:`repro.core.kernels` is the device program:
what ``gpusim`` traces, what the race checker replays and what
``HostSerial`` executes per cell.  Run with ``cell = slice`` it is
~1 100 interpreted scalar-type operations per launch (qp x node x
component, each allocating a ``(cells, F)`` temporary), which on the host
is all the time the kernel takes.  This module is the same arithmetic in
the form the host is good at:

1. the five stress expressions, written as in the listing, evaluated
   once over the ``(cell, qp)`` axes;
2. the whole node x qp accumulation as one batched product per cell,

   .. code-block:: text

       Residual(c, n, :) = [wGradBF | wBF](c, n, (q, 4)) @ [strs | frc](c, (q, 4), :)

   with 2 columns for the values and ``2 F`` for the derivative
   components (``F = 0`` in residual mode).

The value product is the same call in both modes, so a Jacobian-mode
launch returns the residual-mode values bitwise; the products are per
cell, so a cell's result does not depend on which cells share its
launch.  The ``host-lowering-vs-listing`` oracle ties this module to the
listing.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.sfad import fad_derivs, fad_value

__all__ = ["StokesFOResidHostLowering"]

#: Cells per pass over the launch range.  The stress temporaries of one
#: pass are ``(cells, qp, F)`` doubles each; at 128 cells they stay in
#: cache, while one pass over a whole 2 048-cell workset is slower
#: (56 vs 49 ms per Jacobian sweep at 200 km / 10 layers) and raises the
#: solve's peak RSS by 10 % (171 vs 155 MB).  A measured constant of the
#: host, not a tuning knob.
_CHUNK_CELLS = 128


class StokesFOResidHostLowering:
    """The optimized kernel over a contiguous cell range (a ``slice``).

    Generic in the node count, the quadrature size and the derivative
    count; selected by :meth:`repro.core.variants.KernelVariant.make_functor`
    for execution spaces that launch whole ranges.
    """

    name = "StokesFOResid<LandIce_3D_Opt>"

    def __init__(self, fields):
        self.fields = fields
        self.Ugrad = fields.Ugrad
        self.muLandIce = fields.muLandIce
        self.force = fields.force
        self.wBF = fields.wBF
        self.wGradBF = fields.wGradBF
        self.Residual = fields.Residual

    def __call__(self, cell: slice):
        begin, end, _ = cell.indices(self.fields.num_cells)
        for a in range(begin, end, _CHUNK_CELLS):
            self._chunk(slice(a, min(a + _CHUNK_CELLS, end)))

    def _chunk(self, cell: slice):
        Ugrad = self.Ugrad
        mu = self.muLandIce[cell]
        strs00 = 2.0 * mu * (2.0 * Ugrad[cell, :, 0, 0] + Ugrad[cell, :, 1, 1])
        strs11 = 2.0 * mu * (2.0 * Ugrad[cell, :, 1, 1] + Ugrad[cell, :, 0, 0])
        strs01 = mu * (Ugrad[cell, :, 1, 0] + Ugrad[cell, :, 0, 1])
        strs02 = mu * Ugrad[cell, :, 0, 2]
        strs12 = mu * Ugrad[cell, :, 1, 2]
        frc0 = self.force[cell, :, 0]
        frc1 = self.force[cell, :, 1]
        # what multiplies (dphi/dx, dphi/dy, dphi/dz, phi) in R0 and in R1
        terms = ((strs00, strs01), (strs01, strs11), (strs02, strs12), (frc0, frc1))

        # geometry operand: (c, n, q, 4) -> (c, n, 4 q)
        geom = np.concatenate((self.wGradBF[cell], self.wBF[cell][..., None]), axis=-1)
        nc, nn, nq, _ = geom.shape
        geom = geom.reshape(nc, nn, 4 * nq)

        def operand(part, *tail):
            out = np.empty((nc, nq, 4, 2, *tail))
            for d, pair in enumerate(terms):
                for k, term in enumerate(pair):
                    out[:, :, d, k] = part(term)
            return out.reshape(nc, 4 * nq, -1)

        res = self.Residual.data
        np.matmul(geom, operand(fad_value), out=fad_value(res)[cell])
        if self.fields.scalar.is_fad:
            nf = self.fields.scalar.fad_dim
            np.matmul(geom, operand(fad_derivs, nf), out=res.dx[cell].reshape(nc, nn, 2 * nf))
