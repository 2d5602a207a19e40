"""Request/response types of the solve service.

A :class:`SolveScenario` names a problem the service can build and
solve -- mesh resolution, layer count, decomposition and solver knobs.
Its :attr:`~SolveScenario.digest` is the service's cache/dedup key: two
requests for bitwise-identical problems share one artifact-cache entry,
one in-flight solve, and one golden result.

A :class:`SolveRequest` is a scenario plus per-request service policy
(wall-clock budget); a :class:`SolveResponse` reports the typed outcome
every admitted request ends in -- ``ok``, ``degraded``, ``timeout``,
``failed`` or ``shed`` -- plus the provenance the chaos harness asserts
on (retry/resume counts, dedup, degradation rung).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.app.config import PRECONDITIONERS, AntarcticaConfig, VelocityConfig, as_count
from repro.store import content_digest

__all__ = ["SolveScenario", "SolveRequest", "SolveResponse", "STATUSES"]

#: every terminal state a request can reach.  ``ok`` and ``degraded``
#: carry a result (``degraded`` solved a cheaper stand-in and is never
#: bitwise-compared); ``timeout`` may carry a partial checkpoint;
#: ``failed`` and ``shed`` carry a typed reason.
STATUSES = ("ok", "degraded", "timeout", "failed", "shed")

#: the coarse-mesh rung solves at this multiple of the requested resolution
COARSEN_FACTOR = 2.0


@dataclass(frozen=True)
class SolveScenario:
    """One solvable problem identity (the cache and dedup key).

    ``resolution_km`` is stored as a ``float`` and the three counts as
    ``int``: ``600`` and ``600.0`` are one problem with one digest, and a
    count that is not a whole number is refused here, not in a worker.
    """

    name: str
    resolution_km: float = 600.0
    num_layers: int = 3
    preconditioner: str = "vline"
    nparts: int = 1
    newton_steps: int = 8
    #: which synthetic ice sheet ("antarctica" | "greenland"); part of
    #: the problem identity -- same numbers on a different sheet is a
    #: different problem and must not share a cache entry
    family: str = "antarctica"

    def __post_init__(self):
        res = self.resolution_km
        if isinstance(res, bool) or not isinstance(res, numbers.Real):
            raise ValueError(f"resolution_km must be a number, got {res!r}")
        object.__setattr__(self, "resolution_km", float(res))
        for name in ("num_layers", "nparts", "newton_steps"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.family not in ("antarctica", "greenland"):
            raise ValueError(f"unknown ice-sheet family {self.family!r}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(
                f"unknown preconditioner {self.preconditioner!r}; have {PRECONDITIONERS}"
            )
        if not math.isfinite(self.resolution_km):
            raise ValueError(f"resolution_km must be finite, got {self.resolution_km!r}")
        if self.resolution_km <= 0 or self.num_layers <= 0 or self.newton_steps <= 0:
            raise ValueError("resolution, layers and newton_steps must be positive")
        if self.nparts < 1:
            raise ValueError("nparts must be at least 1")

    @property
    def digest(self) -> str:
        """Stable content digest of the problem identity.

        Deliberately excludes ``name``: two differently-named requests
        for the same numbers ARE the same problem and must dedup/cache
        together.
        """
        return content_digest(
            f"res={self.resolution_km!r}|nz={self.num_layers}|"
            f"pc={self.preconditioner}|np={self.nparts}|ns={self.newton_steps}|"
            f"fam={self.family}"
        )

    def to_config(self) -> AntarcticaConfig:
        """The buildable problem configuration for this scenario."""
        return AntarcticaConfig(
            resolution_km=self.resolution_km,
            num_layers=self.num_layers,
            family=self.family,
            velocity=VelocityConfig(
                preconditioner=self.preconditioner,
                nparts=self.nparts,
                newton_steps=self.newton_steps,
            ),
        )

    def coarsened(self) -> "SolveScenario":
        """The degraded (coarser-mesh) stand-in scenario."""
        return replace(
            self,
            name=f"{self.name}~coarse",
            resolution_km=self.resolution_km * COARSEN_FACTOR,
            num_layers=min(self.num_layers, max(3, self.num_layers // 2)),
        )


@dataclass(frozen=True)
class SolveRequest:
    """A scenario plus the per-request service policy."""

    scenario: SolveScenario
    #: wall-clock budget in seconds (None = no deadline).  The clock
    #: starts at ADMISSION, so queue wait counts against the budget --
    #: a request the service cannot schedule in time times out instead
    #: of running long after its caller gave up.
    deadline_s: float | None = None

    def __post_init__(self):
        d = self.deadline_s
        if d is None:
            return
        # a bool is an int to Python, and a string converts: neither is a budget
        if isinstance(d, bool) or not isinstance(d, numbers.Real):
            raise ValueError(f"deadline_s must be a number, got {d!r}")
        if not math.isfinite(d):
            raise ValueError(f"deadline_s must be finite, got {d!r}")
        object.__setattr__(self, "deadline_s", float(d))


@dataclass
class SolveResponse:
    """Typed outcome of one admitted (or shed) request."""

    request: SolveRequest
    status: str
    #: machine-readable detail: shed reason ("queue_full", "breaker_open"),
    #: degradation rung ("coarse_mesh", "cached"), or
    #: the failure/timeout message
    reason: str = ""
    #: the VelocitySolution for ok/degraded (None otherwise)
    result: object = None
    #: last NewtonCheckpoint of a timed-out solve (None when the budget
    #: expired before the first accepted step -- no partial garbage)
    partial: object = None
    #: scenario actually solved (differs from the request's under
    #: coarse-mesh degradation)
    solved: SolveScenario | None = None
    #: this response was joined to another in-flight identical request
    deduped: bool = False
    #: solve attempts (1 = first try succeeded)
    attempts: int = 0
    #: checkpoint resumes after worker deaths
    resumes: int = 0
    latency_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}; have {STATUSES}")

    @property
    def completed(self) -> bool:
        """The request produced a usable solution."""
        return self.status in ("ok", "degraded")

    def to_dict(self) -> dict:
        """JSON-able summary (the HTTP frontend's response body)."""
        out = {
            "scenario": self.request.scenario.name,
            "digest": self.request.scenario.digest,
            "status": self.status,
            "reason": self.reason,
            "deduped": self.deduped,
            "attempts": self.attempts,
            "resumes": self.resumes,
            "latency_s": self.latency_s,
        }
        if self.solved is not None:
            out["solved"] = self.solved.name
        if self.result is not None:
            out["mean_velocity"] = float(self.result.mean_velocity)
            out["newton_steps"] = int(self.result.newton.iterations)
        if self.partial is not None:
            out["partial_step"] = int(self.partial.step)
        return out
