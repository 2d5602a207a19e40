"""Per-element basis data: the arrays the Stokes kernels consume.

Albany's ``ComputeBasisFunctions`` evaluator produces, for every element
and quadrature point, the weighted basis values ``wBF(cell, node, qp)``
and weighted physical basis gradients ``wGradBF(cell, node, qp, dim)``.
This module reproduces that computation, vectorized over all cells.

The reference tables (shape values and gradients at the quadrature
points) depend on ``(elem_type, order)`` only and are built once.  Per
call, every Jacobian entry ``dx_d/dxi_r`` and every quadrature-point
coordinate comes out of one GEMM of the gathered node coordinates
against those tables, and the determinant and inverse are closed-form
cofactors on ``(cells, qps)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.fem.quadrature import quadrature_rule
from repro.fem.reference import reference_element

__all__ = ["BasisData", "compute_basis_data", "compute_face_basis_data"]


@dataclass
class BasisData:
    """Precomputed FE basis data over a set of elements.

    Shapes (``nc`` cells, ``nn`` nodes/elem, ``nq`` qps, ``d`` dims):

    * ``bf``: (nq, nn) reference shape values,
    * ``w_bf``: (nc, nn, nq) basis values x quadrature weight x |detJ|,
    * ``grad_bf``: (nc, nn, nq, d) physical gradients,
    * ``w_grad_bf``: (nc, nn, nq, d) physical gradients x weight x |detJ|,
    * ``det_j``: (nc, nq), ``qp_coords``: (nc, nq, d), ``weights``: (nq,).

    Read-only: worksets slice these without copying and a built problem
    is shared between solves.
    """

    elem_type: str
    bf: np.ndarray
    w_bf: np.ndarray
    grad_bf: np.ndarray
    w_grad_bf: np.ndarray
    det_j: np.ndarray
    qp_coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def num_cells(self) -> int:
        return self.w_bf.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.w_bf.shape[1]

    @property
    def num_qps(self) -> int:
        return self.w_bf.shape[2]

    @property
    def dim(self) -> int:
        return self.w_grad_bf.shape[3]

    def cell_volumes(self) -> np.ndarray:
        """Element volumes (areas in 2-D): sum of weighted |detJ|."""
        return self.det_j @ self.weights


@lru_cache(maxsize=None)
def _reference_tables(elem_type: str, order: int):
    """``(bf, weights, table)`` of one element type and rule, read-only.

    ``table`` is ``(nn, (r + 1) nq)``: the columns ``dN/dxi_0 | ... |
    dN/dxi_{r-1} | N`` at the quadrature points, the right operand of
    :func:`_gemm_columns`.
    """
    ref = reference_element(elem_type)
    qp, w = quadrature_rule(elem_type, order)
    bf = ref.shape(qp)  # (nq, nn)
    gref = ref.grad(qp)  # (nq, nn, r)
    table = np.concatenate([*(gref[:, :, r].T for r in range(ref.dim)), bf.T], axis=1)
    for a in (bf, table):
        a.flags.writeable = False
    return bf, w, table


def _gemm_columns(coords: np.ndarray, cells: np.ndarray, table: np.ndarray, nq: int) -> np.ndarray:
    """``(d, r + 1, nc, nq)``: ``[d, r]`` is ``dx_d/dxi_r`` for the first
    ``r`` reference directions, and ``x_d`` at the quadrature points last.

    One contiguous ``(nc, nn)`` array per coordinate, all of them against
    the whole table in a single ``(d nc, nn) @ (nn, (r + 1) nq)`` GEMM.
    """
    dim, (nc, nn) = coords.shape[1], cells.shape
    x = coords.T[:, cells].reshape(dim * nc, nn)
    return (x @ table).reshape(dim, nc, -1, nq).transpose(0, 2, 1, 3)


def _cofactors(jac):
    """``(cof, det)`` of the 2x2 or 3x3 matrix ``jac[d][r]`` of ``(nc, nq)``
    arrays; ``cof[d][r]`` is the cofactor of entry ``(d, r)``, so the
    inverse is ``inv[r][d] = cof[d][r] / det``."""
    if len(jac) == 2:
        (a, b), (c, d) = jac
        return [[d, -c], [-b, a]], a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = jac
    cof = [
        [e * i - f * h, f * g - d * i, d * h - e * g],
        [c * h - b * i, a * i - c * g, b * g - a * h],
        [b * f - c * e, c * d - a * f, a * e - b * d],
    ]
    return cof, a * cof[0][0] + b * cof[0][1] + c * cof[0][2]


def _first_bad(det_j: np.ndarray) -> int | None:
    """First element whose ``detJ`` is not positive and finite at every qp."""
    ok = (det_j > 0.0) & (det_j < np.inf)  # NaN fails both
    if ok.all():
        return None
    return int(np.argmin(ok.all(axis=1)))


def compute_basis_data(coords: np.ndarray, elems: np.ndarray, elem_type: str, order: int = 2) -> BasisData:
    """Compute :class:`BasisData` for elements of one type.

    Parameters
    ----------
    coords:
        ``(num_nodes, d)`` global node coordinates.
    elems:
        ``(nc, nn)`` element connectivity.
    elem_type:
        Reference element name (``hex8``, ``wedge6``, ``quad4``, ``tri3``).
    order:
        Gauss points per direction (2 -> the paper's 8-point hex rule).

    Raises ``ValueError`` naming the first element whose ``detJ`` is not
    positive and finite at every quadrature point (a tangled element, or
    a NaN/inf coordinate).
    """
    bf, w, table = _reference_tables(elem_type, order)
    nc, (nq, nn) = len(elems), bf.shape
    dim = table.shape[1] // nq - 1
    if coords.shape[1] != dim:
        raise ValueError(f"{elem_type} elements need {dim}-D coordinates, got {coords.shape[1]}-D")
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite raises below
        cols = _gemm_columns(coords, elems, table, nq)
        cof, det_j = _cofactors([[cols[d, r] for r in range(dim)] for d in range(dim)])
    bad = _first_bad(det_j)
    if bad is not None:
        raise ValueError(f"non-positive or non-finite Jacobian in element {bad}: tangled or non-finite mesh")

    # dN/dx_d = sum_r dN/dxi_r * inv[r][d], inv[r][d] = cof[d][r] / det:
    # ``dim`` multiply-adds over (nc, nn, nq) per physical direction
    gref = table.reshape(nn, dim + 1, nq)
    inv_det = 1.0 / det_j
    grad_bf = np.empty((nc, nn, nq, dim))
    term = np.empty((nc, nn, nq))
    for d in range(dim):
        out = grad_bf[..., d]
        for r in range(dim):
            np.multiply(gref[:, r], (cof[d][r] * inv_det)[:, None, :], out=term if r else out)
            if r:
                out += term
    wdet = det_j * w
    w_bf = bf.T * wdet[:, None, :]  # (nc, nn, nq)
    w_grad_bf = grad_bf * wdet[:, None, :, None]
    qp_coords = np.ascontiguousarray(cols[:, dim].transpose(1, 2, 0))

    return BasisData(
        elem_type=elem_type,
        bf=bf,
        w_bf=w_bf,
        grad_bf=grad_bf,
        w_grad_bf=w_grad_bf,
        det_j=det_j,
        qp_coords=qp_coords,
        weights=w,
    )


def compute_face_basis_data(
    coords: np.ndarray, face_nodes: np.ndarray, face_type: str, order: int = 2
) -> BasisData:
    """Basis data on boundary faces embedded in 3-D (for basal friction).

    The face element is 2-D (``quad4`` or ``tri3``) with 3-D node
    coordinates; ``detJ`` is the surface measure ``|t_s x t_t|``, and the
    returned ``w_grad_bf``/``grad_bf`` hold the *tangential-parameter*
    gradients (unused by the friction term, which only needs ``w_bf``).
    """
    bf, w, table = _reference_tables(face_type, order)
    nf, (nq, nn) = len(face_nodes), bf.shape
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite raises below
        cols = _gemm_columns(coords, face_nodes, table, nq)
        (sx, sy, sz), (tx, ty, tz) = cols[:, 0], cols[:, 1]  # tangents t_s, t_t
        nx, ny, nz = sy * tz - sz * ty, sz * tx - sx * tz, sx * ty - sy * tx
        det_j = np.sqrt(nx * nx + ny * ny + nz * nz)
    bad = _first_bad(det_j)
    if bad is not None:
        raise ValueError(f"degenerate boundary face {bad}")

    wdet = det_j * w
    w_bf = bf.T * wdet[:, None, :]
    # parameter-space gradients, kept for completeness
    grad_bf = np.broadcast_to(table.reshape(nn, 3, nq)[:, :2].transpose(0, 2, 1), (nf, nn, nq, 2))
    w_grad_bf = grad_bf * wdet[:, None, :, None]
    qp_coords = np.ascontiguousarray(cols[:, 2].transpose(1, 2, 0))

    return BasisData(
        elem_type=face_type,
        bf=bf,
        w_bf=w_bf,
        grad_bf=grad_bf,
        w_grad_bf=w_grad_bf,
        det_j=det_j,
        qp_coords=qp_coords,
        weights=w,
    )
