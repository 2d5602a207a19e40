"""``parallel_for`` dispatch (the Kokkos analogue).

Kernels are launched with a named dispatch onto an execution space; the
name shows up in profiles exactly like Kokkos kernel labels do in Nsight
or rocprof output.

Every dispatch emits paired begin/end events to the profiling hook
registry (:mod:`repro.observability.hooks`), mirroring the Kokkos Tools
``kokkosp_begin/end_parallel_for`` ABI.  With the registry inactive
(no tool subscribed: the default) a launch pays a single attribute read.
"""

from __future__ import annotations

from repro.kokkos.policy import RangePolicy
from repro.kokkos.space import ExecutionSpace, HostVector
from repro.observability import hooks
from repro.resilience.injectors import KernelLaunchError, fault_plane
from repro.resilience.policies import call_with_retries

__all__ = ["parallel_for", "DEFAULT_EXEC_SPACE"]

#: where a launch without an explicit ``space`` runs
DEFAULT_EXEC_SPACE = HostVector()
_REGISTRY = hooks.registry()
_FAULT_PLANE = fault_plane()


def parallel_for(
    name: str, policy: RangePolicy, functor, space: ExecutionSpace | None = None
) -> None:
    """Execute ``functor`` over ``policy`` on ``space`` (default vectorized host)."""
    space = space or DEFAULT_EXEC_SPACE
    plane = _FAULT_PLANE
    if plane.active:
        # an injected ``kernel.launch`` failure is re-submitted within the
        # policy's retry budget, like a backend after a transient error
        call_with_retries(
            lambda: plane.poke("kernel.launch", name=name, extent=policy.extent),
            plane.policy, plane.log, "kernel.launch", "launch_failure", "launch_retry",
            exceptions=(KernelLaunchError,), name=name,
        )
    reg = _REGISTRY
    if reg.active:
        kid = reg.begin_parallel_for(name, policy.extent, space.name)
        try:
            space.run_range(policy, functor)
        finally:
            reg.end_parallel_for(kid)
    else:
        space.run_range(policy, functor)
