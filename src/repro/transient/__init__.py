"""Transient forward model: coupled thickness/velocity time stepping.

The dynamic loop the paper's velocity solve exists to serve: MALI
advances the ice sheet by alternating a diagnostic FO Stokes solve with
a prognostic thickness update, and this package runs that loop with the
amortizations that make it affordable -- per-scenario artifact reuse,
warm-started Newton solves, CFL-capped explicit stepping -- plus
Lagrangian particle tracking, a curated scenario library, and
checkpoint/resume with a bitwise-reproducibility guarantee.

Entry points: ``python -m repro transient <scenario>`` (CLI),
:class:`TransientEngine` (library), :data:`SCENARIOS` (the library of
named experiments).
"""

from repro.transient.checkpoint import TransientCheckpoint
from repro.transient.engine import TransientEngine, TransientKilled, TransientResult
from repro.transient.particles import ParticleSet
from repro.transient.scenarios import FORCINGS, SCENARIOS, TransientScenario, get_scenario

__all__ = [
    "TransientCheckpoint",
    "TransientEngine",
    "TransientKilled",
    "TransientResult",
    "ParticleSet",
    "TransientScenario",
    "SCENARIOS",
    "FORCINGS",
    "get_scenario",
]
