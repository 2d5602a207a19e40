"""The paper's core contribution: the ``StokesFOResid`` GPU kernels.

This package holds the baseline and optimized element Residual/Jacobian
kernels of Fig. 2 (single-source: the same body runs vectorized host
numerics, serial reference numerics, and the trace mode that feeds the
GPU performance simulator), the optimized listing's lowering for the
vectorized host space (what the solve's launches execute; an oracle ties
it to the listing), the variant registry with the loop-structure and
register metadata the simulator consumes, and the LaunchBounds
configurations studied in Table II.
"""

from repro.core.fields import StokesFields, TraceFields, make_stokes_fields, JACOBIAN_FAD_SIZE
from repro.core.kernels import StokesFOResidBaseline, StokesFOResidOptimized
from repro.core.variants import (
    KernelVariant,
    RegisterProfile,
    VARIANTS,
    get_variant,
    variant_names,
)
from repro.core.launch import (
    TABLE2_LAUNCH_CONFIGS,
    default_launch_bounds,
)
from repro.core.jacobian import (
    local_residual_blocks,
    local_jacobian_blocks,
    run_kernel,
)

__all__ = [
    "StokesFields",
    "TraceFields",
    "make_stokes_fields",
    "JACOBIAN_FAD_SIZE",
    "StokesFOResidBaseline",
    "StokesFOResidOptimized",
    "KernelVariant",
    "RegisterProfile",
    "VARIANTS",
    "get_variant",
    "variant_names",
    "TABLE2_LAUNCH_CONFIGS",
    "default_launch_bounds",
    "local_residual_blocks",
    "local_jacobian_blocks",
    "run_kernel",
]
