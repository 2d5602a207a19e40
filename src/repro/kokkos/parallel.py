"""``parallel_for`` / ``parallel_reduce`` dispatch (Kokkos analogues).

Kernels are launched with a named dispatch onto an execution space; the
name shows up in profiles exactly like Kokkos kernel labels do in Nsight
or rocprof output.

Every dispatch emits paired begin/end events to the profiling hook
registry (:mod:`repro.observability.hooks`), mirroring the Kokkos Tools
``kokkosp_begin/end_parallel_for`` ABI.  With the registry inactive
(no tool subscribed: the default) a launch pays a single attribute read.
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.policy import RangePolicy
from repro.kokkos.space import ExecutionSpace, HostVector
from repro.kokkos.view import View, deep_copy_view
from repro.observability import hooks
from repro.resilience.injectors import KernelLaunchError, fault_plane

__all__ = [
    "parallel_for",
    "parallel_reduce",
    "deep_copy",
    "fence",
    "DEFAULT_EXEC_SPACE",
    "Sum",
    "Max",
    "Min",
]

#: where a launch without an explicit ``space`` runs
DEFAULT_EXEC_SPACE = HostVector()
_REGISTRY = hooks.registry()
_FAULT_PLANE = fault_plane()


def _poke_launch(name: str, extent: int) -> None:
    """Armed-plane launch check: retry injected ``kernel.launch`` failures.

    Mirrors a Kokkos backend re-submitting after a transient launch error;
    a failure persisting past the policy's retry budget propagates.
    """
    plane = _FAULT_PLANE
    policy, log = plane.policy, plane.log
    attempt = 0
    while True:
        try:
            plane.poke("kernel.launch", name=name, extent=extent)
            break
        except KernelLaunchError as exc:
            attempt += 1
            log.record(
                "detection", "launch_failure", "kernel.launch",
                name=name, attempt=attempt, error=str(exc),
            )
            if attempt > policy.max_retries:
                raise
    if attempt > 0:
        log.record(
            "recovery", "launch_retry", "kernel.launch",
            name=name, attempts=attempt,
        )


class Sum:
    @staticmethod
    def reduce(acc: np.ndarray) -> float:
        return float(np.sum(acc))

    identity = 0.0


class Max:
    @staticmethod
    def reduce(acc: np.ndarray) -> float:
        return float(np.max(acc)) if acc.size else -np.inf

    identity = -np.inf


class Min:
    @staticmethod
    def reduce(acc: np.ndarray) -> float:
        return float(np.min(acc)) if acc.size else np.inf

    identity = np.inf


def _coerce_policy(policy) -> RangePolicy:
    if isinstance(policy, int):
        return RangePolicy(0, policy)
    return policy


def parallel_for(name: str, policy, functor, space: ExecutionSpace | None = None) -> None:
    """Execute ``functor`` over ``policy`` on ``space`` (default vectorized host)."""
    policy = _coerce_policy(policy)
    space = space or DEFAULT_EXEC_SPACE
    if _FAULT_PLANE.active:
        _poke_launch(name, policy.extent)
    reg = _REGISTRY
    if reg.active:
        kid = reg.begin_parallel_for(name, policy.extent, space.name)
        try:
            space.run_range(policy, functor)
        finally:
            reg.end_parallel_for(kid)
    else:
        space.run_range(policy, functor)


def parallel_reduce(
    name: str,
    policy,
    functor,
    reducer=Sum,
    space: ExecutionSpace | None = None,
) -> float:
    """Reduce ``functor`` contributions over ``policy``.

    The functor signature is ``functor(i, acc)`` (plus a leading tag when
    the policy carries one); contributions are written into ``acc``.
    """
    policy = _coerce_policy(policy)
    space = space or DEFAULT_EXEC_SPACE
    if _FAULT_PLANE.active:
        _poke_launch(name, policy.extent)
    reg = _REGISTRY
    if reg.active:
        kid = reg.begin_parallel_reduce(name, policy.extent, space.name)
        try:
            return space.run_range_reduce(policy, functor, reducer, reducer.identity)
        finally:
            reg.end_parallel_reduce(kid)
    return space.run_range_reduce(policy, functor, reducer, reducer.identity)


def _view_nbytes(v: View) -> int:
    data = getattr(v, "data", None)
    if data is None:
        return 0
    val = getattr(data, "val", None)
    if val is not None:  # FadArray: value block plus derivative block
        return int(val.nbytes) + int(data.dx.nbytes)
    return int(getattr(data, "nbytes", 0))


def deep_copy(dst: View, src: View) -> None:
    """Copy ``src`` into ``dst`` (Kokkos ``deep_copy``), emitting hook events."""
    reg = _REGISTRY
    if reg.active:
        kid = reg.begin_deep_copy(dst.name, src.name, _view_nbytes(dst))
        try:
            deep_copy_view(dst, src)
        finally:
            reg.end_deep_copy(kid)
    else:
        deep_copy_view(dst, src)


def fence(name: str = "repro.fence") -> None:
    """Global fence, emitted as a paired begin/end hook event.

    Host-synchronous semantics: every execution space in this
    reproduction dispatches synchronously -- ``parallel_for`` returns
    only after the functor has run over the whole range -- so by the
    time ``fence`` is called there is no outstanding work and it
    completes immediately.  It exists so code written against the
    Kokkos API keeps its synchronization points, and so traces show
    where fences would sit (and cost time) on an asynchronous device
    backend.
    """
    reg = _REGISTRY
    if reg.active:
        reg.end_fence(reg.begin_fence(name))
