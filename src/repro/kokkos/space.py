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

import numpy as np

__all__ = ["ExecutionSpace", "HostVector", "HostSerial"]


class ExecutionSpace:
    """Base execution space."""

    name = "abstract"
    concurrency = 1
    #: a range launch is one functor call with a ``slice`` index, so a
    #: kernel variant may substitute its range-wise host lowering
    vectorized = False

    def run_range(self, policy, functor):
        raise NotImplementedError

    def run_range_reduce(self, policy, functor, reducer, init):
        raise NotImplementedError

    def fence(self):
        """No asynchronous work in the host spaces."""

    def __repr__(self):
        return f"<ExecutionSpace {self.name}>"


class HostVector(ExecutionSpace):
    """Vectorized host execution: one functor call over the whole range.

    Multidimensional policies fall back to per-index execution (their
    bodies are not written for vectorized indices).
    """

    name = "HostVector"
    vectorized = True

    def run_range(self, policy, functor):
        if policy.extent == 0:
            return
        if not hasattr(policy, "begin"):  # MDRange/Team: serial fallback
            return HostSerial().run_range(policy, functor)
        idx = slice(policy.begin, policy.end)
        if policy.tag is not None:
            functor(policy.tag, idx)
        else:
            functor(idx)

    def run_range_reduce(self, policy, functor, reducer, init):
        if policy.extent == 0:
            return init
        idx = slice(policy.begin, policy.end)
        acc = np.full(policy.extent, init, dtype=np.float64)
        if policy.tag is not None:
            functor(policy.tag, idx, acc)
        else:
            functor(idx, acc)
        return reducer.reduce(acc)


class HostSerial(ExecutionSpace):
    """Per-index host execution (reference semantics)."""

    name = "HostSerial"

    def run_range(self, policy, functor):
        if policy.tag is not None:
            for i in policy.indices():
                functor(policy.tag, i)
        else:
            for i in policy.indices():
                functor(i)

    def run_range_reduce(self, policy, functor, reducer, init):
        acc = np.full(policy.extent, init, dtype=np.float64)
        if policy.tag is not None:
            for k, i in enumerate(policy.indices()):
                functor(policy.tag, i, acc[k : k + 1])
        else:
            for k, i in enumerate(policy.indices()):
                functor(i, acc[k : k + 1])
        return reducer.reduce(acc)
