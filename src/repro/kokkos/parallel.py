"""``parallel_for`` dispatch (the Kokkos analogue).

Kernels are launched with a named dispatch onto an execution space; the
name shows up in profiles exactly like Kokkos kernel labels do in Nsight
or rocprof output.

While the process-wide span tracer records (inside
``observability.tracing()``), every dispatch is a ``cat="kernel"`` span
on the same timeline as the solver phases, the way a Kokkos Tools
connector pairs ``kokkosp_begin/end_parallel_for``.  Outside a session
a launch pays a single attribute read.
"""

from __future__ import annotations

from repro.kokkos.policy import RangePolicy
from repro.kokkos.space import ExecutionSpace, HostVector
from repro.observability.tracer import get_tracer

__all__ = ["parallel_for", "DEFAULT_EXEC_SPACE"]

#: where a launch without an explicit ``space`` runs
DEFAULT_EXEC_SPACE = HostVector()
_TRACER = get_tracer()


def parallel_for(
    name: str, policy: RangePolicy, functor, space: ExecutionSpace | None = None
) -> None:
    """Execute ``functor`` over ``policy`` on ``space`` (default vectorized host)."""
    space = space or DEFAULT_EXEC_SPACE
    tracer = _TRACER
    if tracer.recording:
        with tracer.span(
            name, cat="kernel", extent=policy.extent, space=space.name, dispatch="parallel_for"
        ):
            space.run_range(policy, functor)
    else:
        space.run_range(policy, functor)
