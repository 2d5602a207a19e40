"""Problem configurations for the velocity solver and the Antarctica test."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

__all__ = [
    "VelocityConfig",
    "AntarcticaConfig",
    "PRECONDITIONERS",
    "as_count",
]


def as_count(name: str, value) -> int:
    """``value`` as an ``int``, or ``ValueError`` unless it is a whole number.

    ``3`` and ``3.0`` are the count 3; ``3.5``, ``True`` and ``"3"`` are
    refused (``int()`` would truncate the first and take the others).
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not float(value).is_integer()
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


#: every preconditioner the velocity solver can build, each under
#: either operator mode and at every ``nparts``: the one statement of
#: which names exist, the default first (what ``VelocityConfig``, serve
#: requests and the example's ``--precond`` validate against).
#:
#: "vline" is the default because it is the fastest on wall time.
#: Eight-step solves, GMRES iterations at 600 km / 3, 400 km / 4 and
#: 200 km / 10 layers: vline 86 / 86 / 88, mdsc 59 / 58 / 60, jacobi
#: 486 / 976 / 6127.  MDSC's collapsed coarse solve saves iterations
#: but costs more than they do: the 8-step run took 13-20 % less wall
#: under vline from 6.8 k to 48 k dofs and 15 % less at the paper's
#: 456 k (49 s against 58 s), with both counts flat in the mesh size,
#: and a vline solve never imports ``scipy.sparse.linalg`` (MDSC's
#: ``splu``).  "jacobi" and "none" cost far more in iterations than
#: they save in set-up (jacobi 28-32 s at 200 km / 10).
#:
#: The resilience fallback (configured -> jacobi -> none, in
#: ``StokesVelocityProblem._preconditioner``) is deliberately not read
#: from this table: it answers "set-up failed, what can still be
#: built", not "which is cheaper".
PRECONDITIONERS = ("vline", "mdsc", "jacobi", "none")


def _default_operator_mode() -> str:
    """Config default for ``operator_mode``, overridable by environment.

    ``REPRO_OPERATOR_MODE=matrix-free`` flips every default-constructed
    config (the CI lever that runs the whole tier-1 suite through the
    matrix-free hot path without editing tests); explicit constructor
    arguments always win.
    """
    return os.environ.get("REPRO_OPERATOR_MODE", "assembled")


@dataclass(frozen=True)
class VelocityConfig:
    """Numerical settings of the FO Stokes velocity solve."""

    kernel_impl: str = "optimized"  # "baseline" | "optimized"
    newton_steps: int = 8  # the paper's test runs 8 nonlinear steps
    #: "vline" (damped vertical-line relaxation: the default, fastest on
    #: wall time, see :data:`PRECONDITIONERS`), "mdsc" (two-level
    #: column-collapse MDSC: the same line relaxation plus a collapsed
    #: membrane coarse solve -- about a third fewer GMRES iterations at
    #: a dearer set-up and apply), "jacobi", or "none"
    preconditioner: str = "vline"
    #: inner linear operator of the Newton--Krylov solve: "assembled"
    #: (CSR fill per step, SpMV matvecs) or "matrix-free" (GMRES applies
    #: the cached SFad element blocks directly -- no CSR fill, no
    #: value/index streams, MDSC built from element blocks).  Defaults
    #: from ``REPRO_OPERATOR_MODE`` when set.  SPMD solves (``nparts >
    #: 1``) always assemble: the row-partitioned distributed operator is
    #: the communication unit, so the axis applies to serial solves.
    operator_mode: str = field(default_factory=_default_operator_mode)
    #: number of SPMD ranks (MALI: one MPI rank per GPU).  With
    #: ``nparts > 1`` the solve runs over a real RCB footprint partition:
    #: rank-restricted assembly, row-partitioned SpMV with ghost refresh,
    #: partitioned dot products, and measured halo traffic in the
    #: diagnostics -- bit-for-bit identical to the serial solve.
    nparts: int = 1

    def __post_init__(self):
        for name in ("newton_steps", "nparts"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.kernel_impl not in ("baseline", "optimized"):
            raise ValueError(f"unknown kernel impl {self.kernel_impl!r}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(
                f"unknown preconditioner {self.preconditioner!r}; have {PRECONDITIONERS}"
            )
        if self.newton_steps <= 0:
            raise ValueError("Newton steps must be positive")
        if self.nparts < 1:
            raise ValueError("nparts must be at least 1")
        if self.operator_mode not in ("assembled", "matrix-free"):
            raise ValueError(
                f"unknown operator_mode {self.operator_mode!r}; have: assembled, matrix-free"
            )


@dataclass(frozen=True)
class AntarcticaConfig:
    """The Section III-B Antarctica standalone test.

    ``resolution_km`` controls the footprint spacing of the synthetic
    Antarctica; the paper's single-GPU setting is 16 km with 20 layers
    (~256K hexahedra).  Full-resolution numerics are expensive in pure
    Python, so tests and examples default to coarser settings -- the
    GPU-performance benchmarks always use the 256K-cell problem size
    regardless (kernel cost is simulated per-cell and scaled).
    """

    resolution_km: float = 64.0
    num_layers: int = 20
    #: which synthetic ice sheet to build: "antarctica" (the paper's
    #: Section III-B test, the default everywhere) or "greenland"
    #: (elongated single dome -- MALI's other flagship configuration,
    #: used by the transient forcing-ramp scenario)
    family: str = "antarctica"
    #: default_factory, not a shared instance: ``VelocityConfig()`` as a
    #: class-level default would be evaluated once at import time, which
    #: freezes environment-derived defaults (``REPRO_OPERATOR_MODE``) as
    #: read when this module loaded -- ``monkeypatch.setenv`` and any
    #: in-process environment change would be silently ignored
    velocity: VelocityConfig = field(default_factory=VelocityConfig)
    #: "quad" (structured footprint -> hexahedra, the paper's test) or
    #: "voronoi" (MPAS-style Voronoi dual triangulation -> prisms,
    #: MALI's production meshing path)
    footprint: str = "quad"

    def __post_init__(self):
        object.__setattr__(self, "num_layers", as_count("num_layers", self.num_layers))
        if not math.isfinite(self.resolution_km):
            raise ValueError(f"resolution_km must be finite, got {self.resolution_km!r}")
        if self.resolution_km <= 0 or self.num_layers <= 0:
            raise ValueError("resolution and layer count must be positive")
        if self.footprint not in ("quad", "voronoi"):
            raise ValueError(f"unknown footprint type {self.footprint!r}")
        if self.family not in ("antarctica", "greenland"):
            raise ValueError(f"unknown ice-sheet family {self.family!r}")

    @property
    def key(self) -> str:
        """Reference-table key for the regression check."""
        fp = "" if self.footprint == "quad" else f"_{self.footprint}"
        return (
            f"{self.family}_res{self.resolution_km:g}km_nz{self.num_layers}"
            f"_{self.velocity.kernel_impl}{fp}"
        )
