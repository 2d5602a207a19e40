"""Profiling hook registry modeled on the Kokkos Tools callback ABI.

Real Kokkos exposes a C profiling interface (``kokkosp_*``) that tools
dlopen into: paired begin/end callbacks around every ``parallel_for`` /
``parallel_reduce`` dispatch, ``deep_copy`` and ``fence``, plus
user-named ``push_region`` / ``pop_region`` markers.  Nsight, rocprof
and the kokkos-tools connectors all attach through that single seam;
this module is the same seam for the Python reproduction.

Mapping to the real ABI:

================================  =====================================
kokkos-tools callback             :class:`ToolSubscriber` method
================================  =====================================
``kokkosp_begin_parallel_for``    ``begin_parallel_for(name, extent,
                                  space) -> kernel id``
``kokkosp_end_parallel_for``      ``end_parallel_for(kid)``
``kokkosp_begin_parallel_reduce``  ``begin_parallel_reduce(...)``
``kokkosp_end_parallel_reduce``   ``end_parallel_reduce(kid)``
``kokkosp_begin_deep_copy``       ``begin_deep_copy(dst_name, src_name,
                                  nbytes)``
``kokkosp_end_deep_copy``         ``end_deep_copy()``
``kokkosp_begin_fence``           ``begin_fence(name) -> kernel id``
``kokkosp_end_fence``             ``end_fence(kid)``
``kokkosp_push_profile_region``   ``push_region(name)``
``kokkosp_pop_profile_region``    ``pop_region()``
================================  =====================================

Zero-overhead contract: dispatch sites guard every emission with the
registry's ``active`` flag (a plain attribute, refreshed on subscribe /
unsubscribe / enable / disable), so with no tool attached -- the
default state: importing the solver stack subscribes nothing -- a kernel
launch pays exactly one attribute read.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["ToolSubscriber", "HookRegistry", "registry", "region"]


class ToolSubscriber:
    """No-op base class for profiling tools (override what you need).

    ``begin_*`` callbacks receive the kernel id the registry assigned to
    the dispatch; the matching ``end_*`` receives the same id, so tools
    can pair events even when dispatches nest (e.g. a kernel launched
    from inside a traced region).
    """

    def begin_parallel_for(self, name: str, extent: int, space: str, kid: int) -> None:
        pass

    def end_parallel_for(self, kid: int) -> None:
        pass

    def begin_parallel_reduce(self, name: str, extent: int, space: str, kid: int) -> None:
        pass

    def end_parallel_reduce(self, kid: int) -> None:
        pass

    def begin_deep_copy(self, dst_name: str, src_name: str, nbytes: int, kid: int) -> None:
        pass

    def end_deep_copy(self, kid: int) -> None:
        pass

    def begin_fence(self, name: str, kid: int) -> None:
        pass

    def end_fence(self, kid: int) -> None:
        pass

    def push_region(self, name: str) -> None:
        pass

    def pop_region(self) -> None:
        pass


class HookRegistry:
    """Fan-out of profiling events to the attached subscribers.

    ``active`` is the dispatch-site fast path: ``False`` whenever the
    registry is disabled or no subscriber is attached, in which case
    call sites skip event construction entirely.
    """

    def __init__(self):
        self._subscribers: list[ToolSubscriber] = []
        self._enabled = True
        self._next_id = 0
        self.active = False

    # -- subscription ---------------------------------------------------
    def _refresh(self) -> None:
        self.active = self._enabled and bool(self._subscribers)

    def subscribe(self, sub: ToolSubscriber) -> ToolSubscriber:
        if sub not in self._subscribers:
            self._subscribers.append(sub)
        self._refresh()
        return sub

    def unsubscribe(self, sub: ToolSubscriber) -> None:
        if sub in self._subscribers:
            self._subscribers.remove(sub)
        self._refresh()

    @property
    def subscribers(self) -> tuple[ToolSubscriber, ...]:
        return tuple(self._subscribers)

    def enable(self) -> None:
        self._enabled = True
        self._refresh()

    def disable(self) -> None:
        self._enabled = False
        self._refresh()

    @contextmanager
    def disabled(self):
        """Silence all hooks (subscribers stay attached) for a block."""
        was = self._enabled
        self.disable()
        try:
            yield self
        finally:
            self._enabled = was
            self._refresh()

    # -- event fan-out --------------------------------------------------
    def _new_id(self) -> int:
        kid = self._next_id
        self._next_id += 1
        return kid

    def begin_parallel_for(self, name: str, extent: int, space: str) -> int:
        kid = self._new_id()
        for s in self._subscribers:
            s.begin_parallel_for(name, extent, space, kid)
        return kid

    def end_parallel_for(self, kid: int) -> None:
        for s in self._subscribers:
            s.end_parallel_for(kid)

    def begin_parallel_reduce(self, name: str, extent: int, space: str) -> int:
        kid = self._new_id()
        for s in self._subscribers:
            s.begin_parallel_reduce(name, extent, space, kid)
        return kid

    def end_parallel_reduce(self, kid: int) -> None:
        for s in self._subscribers:
            s.end_parallel_reduce(kid)

    def begin_deep_copy(self, dst_name: str, src_name: str, nbytes: int) -> int:
        kid = self._new_id()
        for s in self._subscribers:
            s.begin_deep_copy(dst_name, src_name, nbytes, kid)
        return kid

    def end_deep_copy(self, kid: int) -> None:
        for s in self._subscribers:
            s.end_deep_copy(kid)

    def begin_fence(self, name: str) -> int:
        kid = self._new_id()
        for s in self._subscribers:
            s.begin_fence(name, kid)
        return kid

    def end_fence(self, kid: int) -> None:
        for s in self._subscribers:
            s.end_fence(kid)

    def push_region(self, name: str) -> None:
        for s in self._subscribers:
            s.push_region(name)

    def pop_region(self) -> None:
        for s in self._subscribers:
            s.pop_region()


_REGISTRY = HookRegistry()


def registry() -> HookRegistry:
    """The process-wide hook registry every dispatch site emits to."""
    return _REGISTRY


@contextmanager
def region(name: str):
    """User-named profiling region (``Kokkos::Profiling::pushRegion``)."""
    reg = _REGISTRY
    if reg.active:
        reg.push_region(name)
        try:
            yield
        finally:
            reg.pop_region()
    else:
        yield
