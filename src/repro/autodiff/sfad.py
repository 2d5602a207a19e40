"""Vectorized forward-mode AD scalar types (Sacado ``SFad`` analogue).

A :class:`FadArray` holds a value array ``val`` of shape ``S`` and a
derivative array ``dx`` of shape ``S + (n,)`` where ``n`` is the number of
derivative components.  All arithmetic propagates derivatives with the
chain rule and broadcasts exactly like numpy; mixing a ``FadArray`` with a
plain scalar or ndarray treats the latter as a constant.

The element-Jacobian evaluation in the Stokes kernels uses ``SFad(16)``:
8 nodes x 2 velocity components per hexahedral element.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FadArray", "SFad", "is_fad", "fad_value", "fad_derivs"]


def _as_const(x):
    """Coerce a non-Fad operand to an ndarray (treated as a constant)."""
    return np.asarray(x, dtype=np.float64)


class FadArray:
    """Value + derivative-components array with numpy-style broadcasting.

    Parameters
    ----------
    val:
        Array-like of values, any shape ``S``.
    dx:
        Array-like of derivatives, shape ``S + (n,)``.  ``n`` must match
        ``NUM_DERIVS`` for fixed-size subclasses created via :func:`SFad`.
    """

    #: Fixed derivative count for SFad subclasses; ``None`` means dynamic.
    NUM_DERIVS: int | None = None

    # Beat ndarray in mixed binary ops so __r*__ methods run.
    __array_priority__ = 1000.0

    __slots__ = ("val", "dx")

    def __init__(self, val, dx):
        val = np.asarray(val, dtype=np.float64)
        dx = np.asarray(dx, dtype=np.float64)
        if dx.shape[: dx.ndim - 1] != val.shape or dx.ndim != val.ndim + 1:
            raise ValueError(
                f"derivative shape {dx.shape} incompatible with value shape {val.shape}"
            )
        n = dx.shape[-1]
        if self.NUM_DERIVS is not None and n != self.NUM_DERIVS:
            raise ValueError(
                f"{type(self).__name__} requires {self.NUM_DERIVS} derivative "
                f"components, got {n}"
            )
        self.val = val
        self.dx = dx

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, val, n: int | None = None):
        """A Fad with zero derivatives (an AD constant)."""
        val = np.asarray(val, dtype=np.float64)
        if n is None:
            n = cls.NUM_DERIVS
        if n is None:
            raise ValueError("derivative count required for dynamic Fad constants")
        return cls(val, np.zeros(val.shape + (n,)))

    @classmethod
    def independent(cls, val, index: int, n: int | None = None):
        """A Fad seeded as the ``index``-th independent variable."""
        val = np.asarray(val, dtype=np.float64)
        if n is None:
            n = cls.NUM_DERIVS
        if n is None:
            raise ValueError("derivative count required for dynamic Fad seeds")
        dx = np.zeros(val.shape + (n,))
        dx[..., index] = 1.0
        return cls(val, dx)

    def _like(self, val, dx):
        """Build a result of the same Fad type."""
        return type(self)(val, dx)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.val.shape

    @property
    def size(self):
        return self.val.size

    @property
    def num_derivs(self) -> int:
        return self.dx.shape[-1]

    def copy(self):
        return self._like(self.val.copy(), self.dx.copy())

    def __len__(self):
        return len(self.val)

    def __getitem__(self, idx):
        return self._like(self.val[idx], self.dx[idx])

    def __setitem__(self, idx, other):
        if isinstance(other, FadArray):
            self.val[idx] = other.val
            self.dx[idx] = other.dx
        else:
            self.val[idx] = _as_const(other)
            self.dx[idx] = 0.0

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        return self._like(self.val.reshape(shape), self.dx.reshape(shape + (self.num_derivs,)))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.num_derivs}, val={self.val!r})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, FadArray):
            return self._like(self.val + other.val, self.dx + other.dx)
        c = _as_const(other)
        return self._like(self.val + c, np.broadcast_to(self.dx, np.broadcast(self.val, c).shape + (self.num_derivs,)).copy())

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FadArray):
            return self._like(self.val - other.val, self.dx - other.dx)
        c = _as_const(other)
        return self._like(self.val - c, np.broadcast_to(self.dx, np.broadcast(self.val, c).shape + (self.num_derivs,)).copy())

    def __rsub__(self, other):
        c = _as_const(other)
        return self._like(c - self.val, np.broadcast_to(-self.dx, np.broadcast(self.val, c).shape + (self.num_derivs,)).copy())

    def __mul__(self, other):
        if isinstance(other, FadArray):
            dx = self.dx * other.val[..., None]
            dx += other.dx * self.val[..., None]
            return self._like(self.val * other.val, dx)
        c = _as_const(other)
        return self._like(self.val * c, self.dx * c[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FadArray):
            inv = 1.0 / other.val
            q = self.val * inv
            return self._like(q, (self.dx - other.dx * q[..., None]) * inv[..., None])
        c = _as_const(other)
        inv = 1.0 / c
        return self._like(self.val * inv, self.dx * inv[..., None])

    def __rtruediv__(self, other):
        c = _as_const(other)
        inv = 1.0 / self.val
        q = c * inv
        return self._like(q, -self.dx * (q * inv)[..., None])

    def __pow__(self, p):
        if isinstance(p, FadArray):
            # u**v = exp(v log u)
            logu = np.log(self.val)
            r = self.val**p.val
            return self._like(
                r,
                r[..., None]
                * (p.dx * logu[..., None] + self.dx * (p.val / self.val)[..., None]),
            )
        p = _as_const(p)
        r = self.val**p
        return self._like(r, self.dx * (p * self.val ** (p - 1.0))[..., None])

    def __rpow__(self, base):
        base = _as_const(base)
        r = base**self.val
        return self._like(r, self.dx * (r * np.log(base))[..., None])

    def __neg__(self):
        return self._like(-self.val, -self.dx)

    def __pos__(self):
        return self

    def __abs__(self):
        s = np.sign(self.val)
        return self._like(np.abs(self.val), self.dx * s[..., None])

    # ------------------------------------------------------------------
    # comparisons (on values, as in Sacado)
    # ------------------------------------------------------------------
    def _cmp_val(self, other):
        return other.val if isinstance(other, FadArray) else _as_const(other)

    def __lt__(self, other):
        return self.val < self._cmp_val(other)

    def __le__(self, other):
        return self.val <= self._cmp_val(other)

    def __gt__(self, other):
        return self.val > self._cmp_val(other)

    def __ge__(self, other):
        return self.val >= self._cmp_val(other)

    def __eq__(self, other):  # value equality, like Sacado's operator==
        return self.val == self._cmp_val(other)

    def __ne__(self, other):
        return self.val != self._cmp_val(other)

    __hash__ = None


_SFAD_CACHE: dict[int, type] = {}


def SFad(n: int) -> type:
    """Return the fixed-size Fad class with ``n`` derivative components.

    Mirrors Sacado's ``SFad<double, N>``: the derivative count is part of
    the type.  Classes are cached so ``SFad(16) is SFad(16)``.
    """
    if n <= 0:
        raise ValueError("SFad requires a positive derivative count")
    cls = _SFAD_CACHE.get(n)
    if cls is None:
        cls = type(f"SFad{n}", (FadArray,), {"NUM_DERIVS": n, "__slots__": ()})
        _SFAD_CACHE[n] = cls
    return cls


def is_fad(x) -> bool:
    """True when ``x`` carries derivative components."""
    return isinstance(x, FadArray)


def fad_value(x):
    """The value part of ``x`` (identity for plain arrays/scalars)."""
    return x.val if isinstance(x, FadArray) else x


def fad_derivs(x, n: int | None = None):
    """The derivative part of ``x``; zeros for plain arrays."""
    if isinstance(x, FadArray):
        return x.dx
    if n is None:
        raise ValueError("derivative count required for non-Fad input")
    a = np.asarray(x, dtype=np.float64)
    return np.zeros(a.shape + (n,))
