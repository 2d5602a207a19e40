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
   components (``F = 0`` in residual mode; a plain-array ``force`` has no
   derivative rows, so the ``wBF`` quarter of the operand drops out).

``F`` is whatever ``Ugrad`` carries.  Without ``fields.seed`` that is the
Residual's width (the dense-``dx`` form the kernel-level oracles feed).
With it, ``Ugrad``/``muLandIce`` are ``SFad(6)`` seeded at the quadrature
point -- independents ``Ugrad(k', d')``, ``f = 3 k' + d'`` -- and the
second stage of the chain rule, ``dUgrad(c, q, k', d') / dU(c, m, k'') =
delta(k', k'') * grad_bf(c, m, q, d')``, is applied once, on the GEMM
operand (:func:`expand_qp_seed`).

The value product is the same call in both modes, so a Jacobian-mode
launch returns the residual-mode values bitwise; every product is per
cell (the expansion per cell and qp), so a cell's result does not depend
on which cells share its launch.  Oracles: ``host-lowering-vs-listing``
(this module vs the listing), ``qp-seeded-vs-u-seeded`` (the seeded chain).
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.sfad import fad_derivs, fad_value

__all__ = ["StokesFOResidHostLowering", "expand_qp_seed", "pack_geom", "qp_seed_operand"]

#: Cells per pass over the launch range.  The stress temporaries of one
#: pass are ``(cells, qp, F)`` doubles each; at 128 cells they stay in
#: cache, while one pass over a whole 2 048-cell workset is slower
#: (56 vs 49 ms per Jacobian sweep at 200 km / 10 layers) and raises the
#: solve's peak RSS by 10 % (171 vs 155 MB).  A measured constant of the
#: host, not a tuning knob.
_CHUNK_CELLS = 128


def pack_geom(w_grad_bf: np.ndarray, w_bf: np.ndarray) -> np.ndarray:
    """``[wGradBF | wBF]`` per qp, ``(c, n, q, 4)``: the GEMM's left operand."""
    return np.concatenate((w_grad_bf, w_bf[..., None]), axis=-1)


def qp_seed_operand(grad_bf: np.ndarray) -> np.ndarray:
    """``grad_bf(c, m, q, d')`` laid out ``(c, q, d', m)`` for :func:`expand_qp_seed`."""
    return np.ascontiguousarray(grad_bf.transpose(0, 2, 3, 1))


def expand_qp_seed(dx: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Derivatives w.r.t. ``Ugrad`` at a qp -> w.r.t. the nodal unknowns.

    ``dx`` is ``(c, q, ..., 6)``, ``seed`` is ``(c, q, d', m)``; returns
    ``(c, q, ..., k'', m)``: ``sum_d' dx[..., 3 k'' + d'] * seed[c, q, d', m]``,
    one small product per ``(cell, qp)``.  The nodal Fad index is
    ``f = 2 m + k''`` -- the two trailing axes swapped.
    """
    nc, nq, nd, nn = seed.shape
    out = np.matmul(dx.reshape(nc, nq, -1, nd), seed)
    return out.reshape(*dx.shape[:-1], -1, nn)


class StokesFOResidHostLowering:
    """The optimized kernel over a contiguous cell range (a ``slice``).

    Generic in the node count, the quadrature size and the derivative
    counts; selected by :meth:`repro.core.variants.KernelVariant.make_functor`
    for execution spaces that launch whole ranges.
    """

    name = "StokesFOResid<LandIce_3D_Opt>"

    def __init__(self, fields):
        self.fields = fields
        self.Ugrad = fields.Ugrad
        self.muLandIce = fields.muLandIce
        self.force = fields.force
        self.Residual = fields.Residual
        self.seed = fields.seed
        # (c, n, q, 4); the production caller packs it once per geometry
        self.geom = fields.geom
        if self.geom is None:
            self.geom = pack_geom(fields.wGradBF.data, fields.wBF.data)

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
        geom = self.geom[cell]
        nc, nn, nq, _ = geom.shape

        def operand(part, rows, *tail):
            out = np.empty((nc, nq, rows, 2, *tail))
            for d, pair in enumerate(terms[:rows]):
                for k, term in enumerate(pair):
                    out[:, :, d, k] = part(term)
            return out

        def product(rows, rhs, **out):
            lhs = geom[..., :rows].reshape(nc, nn, rows * nq)
            return np.matmul(lhs, rhs.reshape(nc, rows * nq, -1), **out)

        res = self.Residual.data
        product(4, operand(fad_value, 4), out=fad_value(res)[cell])
        if not self.fields.scalar.is_fad:
            return
        rows = 4 if self.force.scalar.is_fad else 3
        dx = operand(fad_derivs, rows, self.Ugrad.scalar.fad_dim)
        out = res.dx[cell]
        if self.seed is None:
            product(rows, dx, out=out.reshape(nc, nn, -1))
        else:
            dx = expand_qp_seed(dx, self.seed[cell])  # (c, q, rows, k, k'', m)
            jac = product(rows, dx).reshape(nc, nn, 2, 2, nn)
            out.reshape(nc, nn, 2, nn, 2)[...] = jac.swapaxes(-1, -2)
