"""Newton checkpoint/restart: snapshot the iterate, resume the solve.

E3SM-class workflows survive node loss by restarting the timestep from
the last written restart file; the velocity solve gets the same shape
at Newton granularity.  ``newton_solve`` snapshots the accepted iterate
(plus the residual/step histories needed for seamless diagnostics)
after every step; ``newton_solve(resume_from=ckpt)`` re-enters the loop
at the checkpointed step with bit-identical state, so a killed solve
continues instead of recomputing.  A warm solve may be between chord
steps (reusing an earlier iterate's Jacobian) when it is killed; the
checkpoint then names that iterate, and the resumed solve evaluates the
Jacobian there again instead of at its own iterate.

On disk it is a :mod:`repro.store` record: one ``.npz`` of the fields
below, written atomically and guarded by a CRC32 over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.store import load_record, record_digest, record_field, save_record

__all__ = ["NewtonCheckpoint"]


@dataclass
class NewtonCheckpoint:
    """State of a Newton solve after ``step`` accepted steps."""

    step: int = record_field(np.int64)
    x: np.ndarray = record_field(np.float64)
    residual_norms: list[float] = record_field(np.float64, default_factory=list)
    step_lengths: list[float] = record_field(np.float64, default_factory=list)
    linear_iterations: list[int] = record_field(np.int64, default_factory=list)
    linear_flags: list[str] = record_field("U16", default_factory=list)
    #: the iterate at which the Jacobian the next step reuses was
    #: evaluated (a chord step is pending), or ``None`` when the next step
    #: sweeps fresh; files written before the field existed load as ``None``
    jacobian_x: np.ndarray | None = record_field(np.float64, default=None)

    @property
    def fnorm(self) -> float:
        """Residual norm at the checkpointed iterate."""
        return self.residual_norms[-1]

    @property
    def digest(self) -> int:
        """CRC32 over every stored field (integrity check on restart)."""
        return record_digest(self)

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint as a ``.npz`` (returns the path written)."""
        return save_record(path, self)

    @classmethod
    def load(cls, path: str | Path) -> "NewtonCheckpoint":
        """Load and integrity-check a saved checkpoint."""
        return load_record(cls, path)
