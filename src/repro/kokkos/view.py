"""Multidimensional arrays (Kokkos ``View`` analogue).

A ``View`` carries a name, a *logical* shape and a scalar specification
(plain ``float64`` or a forward-AD ``SFad(n)`` scalar) over numpy storage
(or a :class:`~repro.autodiff.sfad.FadArray`).  The GPU performance
model lays the data out as Kokkos would on a GPU:

* ``LayoutLeft`` (Kokkos' GPU default): the first extent is stride-1, so
  the ``cell`` index -- mapped to the GPU thread -- is coalesced.
* Fad scalars follow Kokkos+Sacado's contiguous-fad GPU layout: each of
  the ``n + 1`` scalar components forms its own coalesced stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff.sfad import FadArray, SFad

__all__ = ["ScalarSpec", "DOUBLE", "fad_spec", "View"]

@dataclass(frozen=True)
class ScalarSpec:
    """Description of a View's scalar type.

    ``fad_dim`` is the number of derivative components (0 for plain
    doubles); ``components`` counts stored doubles per scalar (value +
    derivatives), which is what the data-movement model multiplies by.
    """

    name: str
    fad_dim: int = 0
    base_bytes: int = 8

    @property
    def components(self) -> int:
        return self.fad_dim + 1

    @property
    def nbytes(self) -> int:
        return self.components * self.base_bytes

    @property
    def is_fad(self) -> bool:
        return self.fad_dim > 0


DOUBLE = ScalarSpec("double")


def fad_spec(n: int) -> ScalarSpec:
    """Scalar spec for ``SFad(n)`` (e.g. ``fad_spec(16)`` stores 17 doubles)."""
    return ScalarSpec(f"SFad<{n}>", fad_dim=n)


class View:
    """Named array of ``float64`` or ``SFad(n)`` scalars."""

    __slots__ = ("name", "shape", "scalar", "data")

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        scalar: ScalarSpec = DOUBLE,
        data=None,
    ):
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ValueError(f"negative extent in view shape {shape}")
        self.name = name
        self.shape = shape
        self.scalar = scalar
        if data is None:
            if scalar.is_fad:
                cls = SFad(scalar.fad_dim)
                data = cls(np.zeros(shape), np.zeros(shape + (scalar.fad_dim,)))
            else:
                data = np.zeros(shape)
        else:
            data = self._validate(data)
        self.data = data

    # ------------------------------------------------------------------
    def _validate(self, data):
        if self.scalar.is_fad:
            if not isinstance(data, FadArray):
                data = SFad(self.scalar.fad_dim).constant(np.asarray(data, dtype=np.float64))
            if data.num_derivs != self.scalar.fad_dim:
                raise ValueError(
                    f"view {self.name!r}: fad dim {data.num_derivs} != {self.scalar.fad_dim}"
                )
        else:
            if isinstance(data, FadArray):
                raise ValueError(f"view {self.name!r} holds doubles, got Fad data")
            data = np.asarray(data, dtype=np.float64)
        if data.shape[: len(self.shape)] != self.shape:
            raise ValueError(
                f"view {self.name!r}: data shape {data.shape} != view shape {self.shape}"
            )
        return data

    # ------------------------------------------------------------------
    def __getitem__(self, idx):
        return self.data[idx]

    def __setitem__(self, idx, value):
        self.data[idx] = value

    def values(self) -> np.ndarray:
        """The value part of the storage (drops derivatives)."""
        return self.data.val if isinstance(self.data, FadArray) else self.data

    def __repr__(self):
        return f"View({self.name!r}, shape={self.shape}, scalar={self.scalar.name})"

