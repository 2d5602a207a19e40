"""Running the Stokes kernels and extracting local residual/Jacobian blocks.

Local dof numbering is node-major (``j = node * 2 + component``),
matching both the ``SFad(16)`` seeding and
:meth:`repro.fem.dofmap.DofMap.elem_dofs`.
"""

from __future__ import annotations

import numpy as np

from repro.core.fields import StokesFields
from repro.core.variants import KernelVariant, get_variant
from repro.kokkos.parallel import DEFAULT_EXEC_SPACE, parallel_for
from repro.kokkos.policy import RangePolicy
from repro.kokkos.space import ExecutionSpace

__all__ = ["run_kernel", "local_residual_blocks", "local_jacobian_blocks"]


def run_kernel(
    variant: KernelVariant | str,
    fields: StokesFields,
    space: ExecutionSpace | None = None,
) -> None:
    """Execute a kernel variant over all cells of ``fields``.

    Fills ``fields.Residual`` (values, plus derivative components when the
    fields were allocated in Jacobian mode).
    """
    if isinstance(variant, str):
        variant = get_variant(variant)
    if variant.mode == "jacobian" and not fields.scalar.is_fad:
        raise ValueError("jacobian variant requires Fad-typed fields")
    if variant.mode == "residual" and fields.scalar.is_fad:
        raise ValueError("residual variant requires double-typed fields")
    space = space or DEFAULT_EXEC_SPACE
    functor = variant.make_functor(fields, space)
    parallel_for(variant.display_name, RangePolicy(0, fields.num_cells), functor, space=space)


def local_residual_blocks(fields: StokesFields) -> np.ndarray:
    """Residual values as per-element blocks ``(nc, 2 * nn)``: a view, like the Jacobian's."""
    vals = fields.Residual.values()  # (nc, nn, 2)
    return vals.reshape(vals.shape[0], -1)


def local_jacobian_blocks(fields: StokesFields) -> np.ndarray:
    """Local Jacobians d(local residual)/d(local dof), a ``(nc, k, k)`` view.

    Requires fields allocated in Jacobian mode (Fad residual).
    """
    if not fields.scalar.is_fad:
        raise ValueError("fields were not evaluated in Jacobian mode")
    dx = fields.Residual.data.dx  # (nc, nn, 2, 2 * nn)
    nc = dx.shape[0]
    k = dx.shape[1] * dx.shape[2]
    return dx.reshape(nc, k, k)
