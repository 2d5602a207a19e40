"""Per-element basis data: the arrays the Stokes kernels consume.

Albany's ``ComputeBasisFunctions`` evaluator produces, for every element
and quadrature point, the weighted basis values ``wBF(cell, node, qp)``
and weighted physical basis gradients ``wGradBF(cell, node, qp, dim)``.
This module reproduces that computation, vectorized over all cells.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """
    ref = reference_element(elem_type)
    qp, w = quadrature_rule(elem_type, order)
    bf = ref.shape(qp)  # (nq, nn)
    gref = ref.grad(qp)  # (nq, nn, d)

    cell_coords = coords[elems]  # (nc, nn, d)
    # Jacobian dX/dxi at each qp: (nc, nq, d, d)
    jac = np.einsum("qnr,cnd->cqdr", gref, cell_coords)
    det_j = np.linalg.det(jac)
    if np.any(det_j <= 0.0):
        bad = int(np.argmin(det_j.min(axis=1)))
        raise ValueError(f"non-positive Jacobian in element {bad}; mesh is tangled")
    inv_jac = np.linalg.inv(jac)  # (nc, nq, r, d) with inv[r,d]=dxi_r/dx_d

    # physical gradients: dN/dx_d = dN/dxi_r * dxi_r/dx_d
    grad_bf = np.einsum("qnr,cqrd->cnqd", gref, inv_jac)
    wdet = det_j * w[None, :]  # (nc, nq)
    w_bf = bf.T[None, :, :] * wdet[:, None, :]  # (nc, nn, nq)
    w_grad_bf = grad_bf * wdet[:, None, :, None]
    qp_coords = np.einsum("qn,cnd->cqd", bf, cell_coords)

    return BasisData(
        elem_type=elem_type,
        bf=bf,
        w_bf=np.ascontiguousarray(w_bf),
        grad_bf=np.ascontiguousarray(grad_bf),
        w_grad_bf=np.ascontiguousarray(w_grad_bf),
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
    ref = reference_element(face_type)
    qp, w = quadrature_rule(face_type, order)
    bf = ref.shape(qp)
    gref = ref.grad(qp)  # (nq, nn, 2)

    cell_coords = coords[face_nodes]  # (nf, nn, 3)
    # tangent vectors: (nf, nq, 3, 2)
    tang = np.einsum("qnr,cnd->cqdr", gref, cell_coords)
    normal = np.cross(tang[..., 0], tang[..., 1])  # (nf, nq, 3)
    det_j = np.linalg.norm(normal, axis=-1)
    if np.any(det_j <= 0.0):
        raise ValueError("degenerate boundary face")

    wdet = det_j * w[None, :]
    w_bf = bf.T[None, :, :] * wdet[:, None, :]
    # parameter-space gradients, kept for completeness
    grad_bf = np.broadcast_to(gref.transpose(1, 0, 2)[None], cell_coords.shape[:1] + gref.transpose(1, 0, 2).shape).copy()
    w_grad_bf = grad_bf * wdet[:, None, :, None]
    qp_coords = np.einsum("qn,cnd->cqd", bf, cell_coords)

    return BasisData(
        elem_type=face_type,
        bf=bf,
        w_bf=np.ascontiguousarray(w_bf),
        grad_bf=grad_bf,
        w_grad_bf=w_grad_bf,
        det_j=det_j,
        qp_coords=qp_coords,
        weights=w,
    )
