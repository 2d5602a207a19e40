"""Execution spaces: where a kernel body actually runs.

``HostVector`` exploits that every kernel in this codebase is written so
that the parallel index may be a slice/array -- one functor call executes
all iterations through vectorized numpy (the production path).  A kernel
variant may register a lowering for such spaces (``vectorized``): a
functor written for a whole range at once rather than for one index.
``HostSerial`` calls the functor per index, which is slow but exercises
the exact per-thread semantics (used by tests and by the trace recorder).
"""

from __future__ import annotations

__all__ = ["ExecutionSpace", "HostVector", "HostSerial"]


class ExecutionSpace:
    """Base execution space."""

    name = "abstract"
    #: a range launch is one functor call with a ``slice`` index, so a
    #: kernel variant may substitute its range-wise host lowering
    vectorized = False

    def run_range(self, policy, functor):
        raise NotImplementedError

    def __repr__(self):
        return f"<ExecutionSpace {self.name}>"


class HostVector(ExecutionSpace):
    """Vectorized host execution: one functor call over the whole range."""

    name = "HostVector"
    vectorized = True

    def run_range(self, policy, functor):
        if policy.extent:
            functor(slice(policy.begin, policy.end))


class HostSerial(ExecutionSpace):
    """Per-index host execution (reference semantics)."""

    name = "HostSerial"

    def run_range(self, policy, functor):
        for i in policy.indices():
            functor(i)
