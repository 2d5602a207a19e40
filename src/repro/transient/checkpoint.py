"""Transient checkpoint/restart: snapshot the coupled state, resume the run.

The transient analogue of :class:`~repro.resilience.checkpoint.
NewtonCheckpoint`, one level up the stack: where a Newton checkpoint
freezes the iterate of one velocity solve, a transient checkpoint
freezes everything the coupled loop needs to continue bit-for-bit --
the cell thickness (the prognostic FV state), the last two velocities
(the next step's warm start extrapolates from both), the derived Newton
absolute tolerance (fixed at the cold start and never recomputed, so a
resumed run solves to the same tolerance), the particle ensemble, and
the recorded histories.

Same on-disk contract too: a :mod:`repro.store` record, so a truncated
or bit-flipped file -- in the state *or* the histories -- refuses to
resume instead of silently forking the trajectory, and a file written
before a field existed refuses to load, naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.store import load_record, record_digest, record_field, save_record

__all__ = ["TransientCheckpoint"]


@dataclass
class TransientCheckpoint:
    """Coupled transient state after ``step`` completed steps."""

    step: int = record_field(np.int64)  # completed steps (resume starts here)
    t_years: float = record_field(np.float64)  # model time after those steps
    tol_abs: float = record_field(np.float64)  # Newton abs tol, fixed at the cold start
    thickness: np.ndarray = record_field(np.float64)  # (num_footprint_elems,) [m]
    u: np.ndarray = record_field(np.float64)  # (num_dofs,) last velocity (next warm start)
    # (num_dofs,) the velocity one step before ``u``; (0,) after the cold step
    u_before: np.ndarray = record_field(np.float64)
    particles_xy: np.ndarray = record_field(np.float64)  # (np, 2)
    particles_zeta: np.ndarray = record_field(np.float64)  # (np,)
    particles_active: np.ndarray = record_field(bool)  # (np,)
    scenario_digest: str = record_field("U32", default="")
    volumes: list[float] = record_field(np.float64, default_factory=list)  # V_0 .. V_step
    times: list[float] = record_field(np.float64, default_factory=list)  # t after each step
    dts: list[float] = record_field(np.float64, default_factory=list)  # accepted dt per step
    newton_iterations: list[int] = record_field(np.int64, default_factory=list)

    @property
    def digest(self) -> int:
        """CRC32 over every stored field."""
        return record_digest(self)

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint as a ``.npz`` (returns the path written)."""
        return save_record(path, self)

    @classmethod
    def load(cls, path: str | Path) -> "TransientCheckpoint":
        """Load and integrity-check a saved checkpoint."""
        return load_record(cls, path)

    def check_scenario(self, scenario) -> "TransientCheckpoint":
        """``self``, or ``ValueError`` when another scenario wrote it."""
        if self.scenario_digest and self.scenario_digest != scenario.digest:
            raise ValueError(
                f"checkpoint belongs to scenario digest {self.scenario_digest}, not "
                f"{scenario.digest} ({scenario.name}); resuming would fork the trajectory"
            )
        return self
