"""Forward-mode automatic differentiation (Sacado analogue).

Albany computes element Jacobians by evaluating the residual kernel with
the Sacado ``SFad`` scalar type, which carries a value plus a fixed,
compile-time number of derivative components.  This package provides the
same algebra, vectorized over numpy arrays:

* :class:`FadArray` -- value + derivative array, the workhorse type.
* :func:`SFad` -- class factory producing fixed-size Fad types (the
  ``SFad<N>`` analogue); the derivative count is a class attribute so the
  performance model can reason about data volumes (``SFad<16>`` moves
  17x the data of a plain double).
* :mod:`repro.autodiff.ops` -- math functions (sqrt, exp, ...) that
  dispatch on plain arrays and Fad values alike.
* :mod:`repro.autodiff.seeding` -- helpers to seed independent variables
  and extract dense/local Jacobians.
"""

from repro.autodiff.sfad import FadArray, SFad, is_fad, fad_value, fad_derivs
from repro.autodiff.seeding import (
    seed_independent,
    seed_block,
    extract_jacobian,
    finite_difference_jacobian,
)
from repro.autodiff import ops

__all__ = [
    "FadArray",
    "SFad",
    "is_fad",
    "fad_value",
    "fad_derivs",
    "seed_independent",
    "seed_block",
    "extract_jacobian",
    "finite_difference_jacobian",
    "ops",
]
