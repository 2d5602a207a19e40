"""Land-ice physics: Glen's law viscosity, FO Stokes terms, thickness.

Evaluators are templated on the scalar type exactly like Albany: passing
plain arrays evaluates the Residual; passing ``SFad(16)`` values carries
derivatives through for the Jacobian.
"""

from repro.physics.viscosity import (
    effective_strain_rate_squared,
    effective_strain_rate_squared_tangent,
    glen_prefactor,
    glen_viscosity,
    flow_factor_arrhenius,
)
from repro.physics.thickness import CflViolationError, ThicknessEvolver
from repro.physics.evaluators import (
    Workset,
    Evaluator,
    FieldManager,
    GatherSolution,
    DOFVecGradInterpolation,
    ViscosityFOEvaluator,
    BodyForceEvaluator,
    StokesFOResidEvaluator,
    BasalFrictionResidEvaluator,
    ScatterResidual,
    build_stokes_field_manager,
)

__all__ = [
    "effective_strain_rate_squared",
    "effective_strain_rate_squared_tangent",
    "glen_prefactor",
    "glen_viscosity",
    "flow_factor_arrhenius",
    "ThicknessEvolver",
    "CflViolationError",
    "Workset",
    "Evaluator",
    "FieldManager",
    "GatherSolution",
    "DOFVecGradInterpolation",
    "ViscosityFOEvaluator",
    "BodyForceEvaluator",
    "StokesFOResidEvaluator",
    "BasalFrictionResidEvaluator",
    "ScatterResidual",
    "build_stokes_field_manager",
]
