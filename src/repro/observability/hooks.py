"""Profiling hook registry modeled on the Kokkos Tools callback ABI.

Real Kokkos exposes a C profiling interface (``kokkosp_*``) that tools
dlopen into: paired begin/end callbacks around every dispatch.  Nsight,
rocprof and the kokkos-tools connectors all attach through that single
seam; this module is the same seam for the Python reproduction, for the
one dispatch it has, ``parallel_for``.

Mapping to the real ABI:

================================  =====================================
kokkos-tools callback             :class:`ToolSubscriber` method
================================  =====================================
``kokkosp_begin_parallel_for``    ``begin_parallel_for(name, extent,
                                  space) -> kernel id``
``kokkosp_end_parallel_for``      ``end_parallel_for(kid)``
================================  =====================================

Zero-overhead contract: dispatch sites guard every emission with the
registry's ``active`` flag (a plain attribute, refreshed on subscribe /
unsubscribe / enable / disable), so with no tool attached -- the
default state: importing the solver stack subscribes nothing -- a kernel
launch pays exactly one attribute read.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["ToolSubscriber", "HookRegistry", "registry"]


class ToolSubscriber:
    """No-op base class for profiling tools (override what you need).

    ``begin_parallel_for`` receives the kernel id the registry assigned
    to the dispatch; the matching ``end_parallel_for`` receives the same
    id, so tools can pair events even when dispatches nest.
    """

    def begin_parallel_for(self, name: str, extent: int, space: str, kid: int) -> None:
        pass

    def end_parallel_for(self, kid: int) -> None:
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
    def begin_parallel_for(self, name: str, extent: int, space: str) -> int:
        kid = self._next_id
        self._next_id += 1
        for s in self._subscribers:
            s.begin_parallel_for(name, extent, space, kid)
        return kid

    def end_parallel_for(self, kid: int) -> None:
        for s in self._subscribers:
            s.end_parallel_for(kid)


_REGISTRY = HookRegistry()


def registry() -> HookRegistry:
    """The process-wide hook registry every dispatch site emits to."""
    return _REGISTRY

