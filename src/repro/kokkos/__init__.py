"""Mini-Kokkos: a Python analogue of the Kokkos programming model.

Albany achieves performance portability by writing each kernel once
against Kokkos ``View`` / ``parallel_for`` abstractions and letting the
execution space map it to hardware.  This package reproduces that
single-source structure at the size the kernels use:

* :class:`~repro.kokkos.view.View` -- named multidimensional array over
  ``float64`` or ``SFad(n)`` scalars.
* :mod:`~repro.kokkos.policy` -- ``RangePolicy`` and ``LaunchBounds``.
* :mod:`~repro.kokkos.space` -- execution spaces: ``HostVector`` (numpy
  vectorized, the production path) and ``HostSerial`` (per-index loop,
  for correctness tests).  GPUs are modeled by :mod:`repro.gpusim`.
* :mod:`~repro.kokkos.parallel` -- ``parallel_for``.
* :mod:`~repro.kokkos.instrument` -- recording views/scalars used to
  extract per-thread access traces and flop counts from kernel bodies.
"""

from repro.kokkos.view import View, ScalarSpec, DOUBLE, fad_spec
from repro.kokkos.policy import RangePolicy, LaunchBounds, DEFAULT_LAUNCH_BOUNDS
from repro.kokkos.space import HostVector, HostSerial, ExecutionSpace
from repro.kokkos.parallel import parallel_for
from repro.kokkos.instrument import TraceContext, TraceView, TraceScalar, Access

__all__ = [
    "View",
    "ScalarSpec",
    "DOUBLE",
    "fad_spec",
    "RangePolicy",
    "LaunchBounds",
    "DEFAULT_LAUNCH_BOUNDS",
    "HostVector",
    "HostSerial",
    "ExecutionSpace",
    "parallel_for",
    "TraceContext",
    "TraceView",
    "TraceScalar",
    "Access",
]
