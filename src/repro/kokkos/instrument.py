"""Recording views and scalars: extract per-thread traces from kernels.

The GPU performance simulator runs a kernel body for a *single*
representative cell with every view replaced by a :class:`TraceView` and
every scalar by a :class:`TraceScalar`.  The result is the kernel's exact
per-thread program: an ordered list of global-memory accesses (which view,
which inner offset, read or write, how many fad components) plus a flop
and memory-instruction count.  Because all threads of these kernels
execute the same straight-line program on different cells, one recorded
thread fully characterizes the kernel (Section V of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Access", "TraceContext", "TraceScalar", "TraceView"]


@dataclass(frozen=True)
class Access:
    """One logical scalar access to a view from one thread.

    ``inner`` is the flattened non-cell index; the cell index is the
    thread coordinate and is filled in when the trace is expanded across
    a wave of threads.  A Fad scalar of ``components`` doubles expands to
    that many coalesced component streams.
    """

    view: str
    inner: int
    write: bool
    components: int


@dataclass
class TraceContext:
    """Accumulates the per-thread program while a kernel body runs."""

    accesses: list[Access] = field(default_factory=list)
    flops: int = 0
    mem_insts: int = 0
    local_reads: int = 0
    local_writes: int = 0

    def record(self, access: Access) -> None:
        self.accesses.append(access)
        self.mem_insts += access.components

    def add_flops(self, n: int) -> None:
        self.flops += n

    def scalar(self, fad_dim: int = 0) -> "TraceScalar":
        return TraceScalar(self, fad_dim)

    @property
    def reads(self) -> list[Access]:
        return [a for a in self.accesses if not a.write]

    @property
    def writes(self) -> list[Access]:
        return [a for a in self.accesses if a.write]


class TraceScalar:
    """Symbolic scalar that counts flops as the kernel body computes.

    Flop counts follow the Sacado expansion: an operation on a Fad value
    with ``n`` derivative components performs the value flop plus the
    chain-rule work on all ``n`` components (e.g. a Fad*Fad multiply is
    ``1 + 3n`` flops: the value product plus ``u' v + u v'`` per
    component).
    """

    __slots__ = ("ctx", "fad_dim")

    def __init__(self, ctx: TraceContext, fad_dim: int = 0):
        self.ctx = ctx
        self.fad_dim = fad_dim

    # -- helpers -------------------------------------------------------
    def _dims(self, other) -> tuple[int, bool]:
        """(result fad dim, other-is-fad)."""
        if isinstance(other, TraceScalar):
            return max(self.fad_dim, other.fad_dim), other.fad_dim > 0
        return self.fad_dim, False

    def _result(self, fad_dim: int) -> "TraceScalar":
        return TraceScalar(self.ctx, fad_dim)

    # -- linear ops ----------------------------------------------------
    def _addsub(self, other):
        n, other_fad = self._dims(other)
        both_fad = self.fad_dim > 0 and other_fad
        self.ctx.add_flops(1 + (n if both_fad else 0))
        return self._result(n)

    __add__ = __radd__ = __sub__ = __rsub__ = _addsub

    def __neg__(self):
        self.ctx.add_flops(1 + self.fad_dim)
        return self._result(self.fad_dim)

    def __pos__(self):
        return self

    def __abs__(self):
        self.ctx.add_flops(1 + self.fad_dim)
        return self._result(self.fad_dim)

    # -- multiplicative ops --------------------------------------------
    def __mul__(self, other):
        n, other_fad = self._dims(other)
        both_fad = self.fad_dim > 0 and other_fad
        self.ctx.add_flops(1 + (3 * n if both_fad else n))
        return self._result(n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        n, other_fad = self._dims(other)
        if other_fad:
            self.ctx.add_flops(2 + 4 * n)
        else:
            self.ctx.add_flops(1 + n)
        return self._result(n)

    def __rtruediv__(self, other):
        n = self.fad_dim
        self.ctx.add_flops(2 + 2 * n)
        return self._result(n)

    def __pow__(self, p):
        n = self.fad_dim
        self.ctx.add_flops(8 + 2 * n)
        return self._result(n)

    def sqrt(self):
        self.ctx.add_flops(8 + 2 * self.fad_dim)
        return self._result(self.fad_dim)

    def __repr__(self):
        return f"TraceScalar(fad_dim={self.fad_dim})"


class TraceView:
    """View stand-in that records accesses instead of touching data."""

    __slots__ = ("ctx", "name", "shape", "scalar")

    def __init__(self, ctx: TraceContext, view):
        self.ctx = ctx
        self.name = view.name
        self.shape = view.shape
        self.scalar = view.scalar

    def _inner(self, idx) -> int:
        if not isinstance(idx, tuple):
            idx = (idx,)
        # idx[0] is the cell/thread coordinate (symbolic); flatten the rest.
        inner_idx = tuple(int(i) for i in idx[1:])
        flat = 0
        for i, ext in zip(inner_idx, self.shape[1:]):
            if not 0 <= i < ext:
                raise IndexError(f"trace view {self.name!r}: index {i} out of extent {ext}")
            flat = flat * ext + i
        return flat

    def __getitem__(self, idx) -> TraceScalar:
        self.ctx.record(Access(self.name, self._inner(idx), False, self.scalar.components))
        return TraceScalar(self.ctx, self.scalar.fad_dim)

    def __setitem__(self, idx, value) -> None:
        if not isinstance(value, (TraceScalar, int, float)):
            raise TypeError(f"trace view {self.name!r} assigned a {type(value).__name__}")
        self.ctx.record(Access(self.name, self._inner(idx), True, self.scalar.components))
