"""HostVector lowering of the optimized ``StokesFOResid`` listing.

The Fig. 2 listing in :mod:`repro.core.kernels` is the device program:
what ``gpusim`` traces, what the race checker replays and what
``HostSerial`` executes per cell.  Run with ``cell = slice`` it is
~1 100 interpreted scalar-type operations per launch (qp x node x
component, each allocating a ``(cells, F)`` temporary), which on the host
is all the time the kernel takes.  This module is the same arithmetic in
the form the host is good at:

1. the five stress expressions, written as in the listing, evaluated
   once over the ``(cell, qp)`` axes on plain values; their derivatives
   by the product rule in closed form (:func:`stresses`);
2. the whole node x qp accumulation as one batched product per cell,

   .. code-block:: text

       Residual(c, n, :) = [wGradBF | wBF](c, n, (q, 4)) @ [strs | frc](c, (q, 4), :)

   with 2 columns for the values and ``2 F`` for the derivative
   components (``F = 0`` in residual mode; a plain-array ``force`` has no
   derivative rows, so the ``wBF`` quarter of the operand drops out).

``F`` is whatever ``Ugrad`` carries.  Without ``fields.seed`` that is the
Residual's width (the dense-``dx`` form the kernel-level oracles feed).
With it, ``Ugrad``/``muLandIce`` are ``SFad(6)`` seeded at the quadrature
point -- independents ``Ugrad(k', d')``, ``f = 3 k' + d'``, the
:data:`QP_SEED` identity -- and the second stage of the chain rule,
``dUgrad(c, q, k', d') / dU(c, m, k'') = delta(k', k'') * grad_bf(c, m, q,
d')``, is applied once, on the GEMM operand (:func:`expand_qp_seed`).
``fields.seed`` is the basis gradient itself; each pass lays its own
cells out as the product wants them (:func:`qp_seed_operand`), so no
second copy of the gradient outlives the pass.

The value product is the same call in both modes, so a Jacobian-mode
launch returns the residual-mode values bitwise; every product is per
cell (the expansion per cell and qp), so a cell's result does not depend
on which cells share its launch.  Oracles: ``host-lowering-vs-listing``
(this module vs the listing), ``qp-seeded-vs-u-seeded`` (the seeded chain).
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.sfad import fad_value

__all__ = [
    "QP_SEED",
    "StokesFOResidHostLowering",
    "expand_qp_seed",
    "pack_geom",
    "qp_seed_operand",
    "qp_tangent",
    "stresses",
]

#: Cells per pass of a Jacobian launch.  The stress tangent, its
#: expansion and the pass's seed operand are ``(cells, qp, ..., F)``
#: doubles each; at 128 cells they stay in cache, while one pass over a
#: whole 2 048-cell workset is slower (14.6 vs 13.3 ms per Jacobian sweep
#: at 200 km / 10 layers) and more than doubles the sweep's traced
#: allocation peak (33.9 vs 15.6 MB).  A
#: residual launch has no derivative temporaries and runs in one pass.  A
#: measured constant of the host, not a tuning knob.
_CHUNK_CELLS = 128

#: the qp seed ``dUgrad(k, d) / dUgrad(k', d')``, ``f = 3 k' + d'``: every
#: Jacobian-mode ``Ugrad`` of the production sweep broadcasts this one
#: read-only block
QP_SEED = np.eye(6).reshape(2, 3, 6)
QP_SEED.flags.writeable = False

#: ``L``: the listing's stresses are ``S = mu * a(Ugrad)`` with ``a`` linear,
#: one row of ``da / dUgrad(k', d')`` (``f = 3 k' + d'``) per operand slot
#: ``(d, k)`` -- what multiplies ``dphi/dx_d`` in ``R_k``
_STRESS_L = np.array(
    [
        [4.0, 0.0, 0.0, 0.0, 2.0, 0.0],  # (x, 0) strs00 = 2 mu (2 u_x + v_y)
        [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],  # (x, 1) strs01 = mu (v_x + u_y)
        [0.0, 1.0, 0.0, 1.0, 0.0, 0.0],  # (y, 0) strs01
        [2.0, 0.0, 0.0, 0.0, 4.0, 0.0],  # (y, 1) strs11 = 2 mu (2 v_y + u_x)
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # (z, 0) strs02 = mu u_z
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # (z, 1) strs12 = mu v_z
    ]
)
_STRESS_L.flags.writeable = False


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


def qp_tangent(dx: np.ndarray) -> np.ndarray | None:
    """``Ugrad``'s tangent ``(..., 2, 3, F)`` as the closed-form derivatives
    take it: ``None`` for :data:`QP_SEED` broadcast over every point (the
    formulas' own coefficients are then the derivative), ``(..., 6, F)``
    for a dense tangent.  A tangent shared across points that is not the
    seed raises: it is never taken for the identity."""
    if dx.shape[-3:-1] != (2, 3):
        raise ValueError(f"Ugrad tangent of shape {dx.shape}, expected (..., 2, 3, F)")
    points = dx.shape[:-3]
    shared = [s == 0 for s, n in zip(dx.strides, points) if n > 1]
    if not any(shared):
        return dx.reshape(*points, 6, dx.shape[-1])
    if all(shared) and np.array_equal(dx[(0,) * len(points)], QP_SEED):
        return None
    raise ValueError("Ugrad tangent is shared across points but is not the qp seed")


def stresses(g, mu, dmu=None, dUgrad=None, out=None) -> np.ndarray:
    """The listing's stresses per operand slot ``(d, k)`` -- what multiplies
    ``dphi/dx_d`` in ``R_k`` -- ``(c, q, 6)``; given ``dmu``, their tangent too.

    Each is ``S = mu * a`` with ``a`` linear in the ``Ugrad`` values ``g``,
    its coefficients a row of ``L`` (:data:`_STRESS_L`);
    ``mu (2 (2 u_x + v_y))`` is the listing's ``2 mu (2 u_x + v_y)``,
    bitwise.  The tangent goes into ``out`` ``(c, q, 6, F)`` by the
    product rule, ``dS = a dmu + mu L dUgrad``, ``dUgrad`` being what
    :func:`qp_tangent` returns (on the qp seed: ``L`` itself).  Term by
    term that is the ``SFad`` product's arithmetic regrouped by powers of
    two, so it returns the same bits.
    """
    a00 = 2.0 * g[..., 0, 0] + g[..., 1, 1]
    a11 = 2.0 * g[..., 1, 1] + g[..., 0, 0]
    a01 = g[..., 1, 0] + g[..., 0, 1]
    a = np.stack((2.0 * a00, a01, a01, 2.0 * a11, g[..., 0, 2], g[..., 1, 2]), axis=-1)
    if dmu is not None:
        L = _STRESS_L if dUgrad is None else np.matmul(_STRESS_L, dUgrad)
        np.einsum("...s,...f->...sf", a, dmu, out=out)
        out += mu[..., None, None] * L
    return mu[..., None] * a


class StokesFOResidHostLowering:
    """The optimized kernel over a contiguous cell range (a ``slice``).

    Generic in the node count, the quadrature size and the derivative
    counts; selected by :meth:`repro.core.variants.KernelVariant.make_functor`
    for execution spaces that launch whole ranges.
    """

    name = "StokesFOResid<LandIce_3D_Opt>"

    def __init__(self, fields):
        self.fields = fields
        self.Ugrad = fields.Ugrad.values()
        self.muLandIce = fields.muLandIce.values()
        self.force = fields.force.values()
        self.Residual = fields.Residual
        self.seed = fields.seed
        # (c, n, q, 4); the production caller packs it once per geometry
        self.geom = fields.geom
        if self.geom is None:
            self.geom = pack_geom(fields.wGradBF.data, fields.wBF.data)
        if fields.scalar.is_fad:
            self.dUgrad = qp_tangent(fields.Ugrad.data.dx)
            self.dmu = fields.muLandIce.data.dx
            self.dforce = fields.force.data.dx if fields.force.scalar.is_fad else None

    def __call__(self, cell: slice):
        begin, end, _ = cell.indices(self.fields.num_cells)
        step = _CHUNK_CELLS if self.fields.scalar.is_fad else max(end - begin, 1)
        for a in range(begin, end, step):
            self._chunk(slice(a, min(a + step, end)))

    def _chunk(self, cell: slice):
        geom = self.geom[cell]
        nc, nn, nq, _ = geom.shape
        g, mu = self.Ugrad[cell], self.muLandIce[cell]
        jacobian = self.fields.scalar.is_fad
        if jacobian:
            rows = 3 if self.dforce is None else 4
            # (c, q, (d, k), F): the stress slots, then the force's
            dx = np.empty((nc, nq, 2 * rows, self.dmu.shape[-1]))
            dUgrad = None if self.dUgrad is None else self.dUgrad[cell]
            strs = stresses(g, mu, self.dmu[cell], dUgrad, out=dx[:, :, :6])
            if rows == 4:
                dx[:, :, 6:] = self.dforce[cell]
        else:
            strs = stresses(g, mu)

        def product(rows, rhs, **out):
            lhs = geom[..., :rows].reshape(nc, nn, rows * nq)
            return np.matmul(lhs, rhs.reshape(nc, rows * nq, -1), **out)

        # what multiplies (dphi/dx, dphi/dy, dphi/dz, phi) in R0 and in R1
        vals = np.concatenate((strs, self.force[cell]), axis=-1)
        res = self.Residual.data
        product(4, vals, out=fad_value(res)[cell])
        if not jacobian:
            return

        dx = dx.reshape(nc, nq, rows, 2, -1)
        out = res.dx[cell]
        if self.seed is None:
            product(rows, dx, out=out.reshape(nc, nn, -1))
        else:
            seed = qp_seed_operand(self.seed[cell])
            dx = expand_qp_seed(dx, seed)  # (c, q, rows, k, k'', m)
            jac = product(rows, dx).reshape(nc, nn, 2, 2, nn)
            out.reshape(nc, nn, 2, nn, 2)[...] = jac.swapaxes(-1, -2)
