"""Named transient scenarios: the forward-model equivalent of goldens.

A :class:`TransientScenario` is the complete, hashable identity of one
transient experiment -- which synthetic ice sheet, at what resolution,
stepped how, under which forcing, with how many tracked particles.  Its
:attr:`~TransientScenario.digest` keys the
:class:`~repro.store.ArtifactCache`, so repeated runs of the same
scenario -- the CLI check's cold / killed / resumed trio above all --
share one built mesh + Stokes problem instead of paying the symbolic
assembly pass three times.

The library below is small and curated, like the reference-value table:
each entry exercises one coupling regime (closed mass budget, margin
retreat, uniform forcing ramp on the Greenland family, sub-shelf
collapse) and is cheap enough for CI.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from repro.app.config import AntarcticaConfig, VelocityConfig, as_count
from repro.store import content_digest

__all__ = ["TransientScenario", "SCENARIOS", "get_scenario", "FORCINGS"]

# How every scenario is stepped (no scenario uses another value).  The
# digest still writes each one, so changing a constant here makes every
# checkpoint written under the old value refuse to resume.

#: per-solve Newton budget: headroom over the cold solve's count
NEWTON_STEPS = 12
#: requested step [yr]; the CFL cap may shorten it
DT_YEARS = 50.0
#: fraction of the evolver's stable dt a step may take, so the explicit
#: upwind update stays monotone and the ``H >= 0`` clip stays inactive
#: on closed-budget runs
CFL_SAFETY = 0.5
#: relative Newton tolerance: ``tol_abs = NEWTON_RTOL * ||F(0)||`` of
#: the cold solve, fixed for the whole run
NEWTON_RTOL = 1.0e-6
#: steps between periodic checkpoints
CHECKPOINT_EVERY = 5
#: time for the "ramp" forcing to reach full amplitude [yr]
FORCING_RAMP_YEARS = 200.0

#: supported mass-balance forcings (applied by the engine each step):
#: "none" -- zero SMB/BMB everywhere (closed budget: total volume is an
#: invariant and the conservation gate can demand drift at roundoff);
#: "retreat" -- negative SMB ramping up toward the margin (Antarctica
#: retreat); "ramp" -- spatially uniform SMB drawdown growing linearly
#: in time to its amplitude (Greenland forcing ramp); "collapse" --
#: negative BMB under floating ice only (ice-shelf collapse).
FORCINGS = ("none", "retreat", "ramp", "collapse")


@dataclass(frozen=True)
class TransientScenario:
    """One named transient experiment (the cache / golden / digest key)."""

    name: str
    description: str = ""
    # -- problem identity ----------------------------------------------
    family: str = "antarctica"  # "antarctica" | "greenland"
    resolution_km: float = 400.0
    num_layers: int = 4
    # -- stepping ------------------------------------------------------
    num_steps: int = 12
    # -- forcing -------------------------------------------------------
    forcing: str = "none"
    forcing_amplitude: float = 0.0  # [m/yr] peak mass-balance magnitude
    # -- particles -----------------------------------------------------
    num_particles: int = 64
    particle_seed: int = 7

    def __post_init__(self):
        for name in ("resolution_km", "forcing_amplitude"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("num_layers", "num_steps", "num_particles", "particle_seed"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.family not in ("antarctica", "greenland"):
            raise ValueError(f"unknown ice-sheet family {self.family!r}")
        if self.forcing not in FORCINGS:
            raise ValueError(f"unknown forcing {self.forcing!r}; have {FORCINGS}")
        if self.resolution_km <= 0.0 or self.num_layers <= 0 or self.num_steps <= 0:
            raise ValueError("resolution_km, num_layers and num_steps must be positive")
        if self.num_particles < 0 or self.particle_seed < 0:
            raise ValueError("num_particles and particle_seed must be >= 0")

    @property
    def digest(self) -> str:
        """Stable content digest of the experiment identity.

        Excludes ``name`` and ``description`` (two differently-named
        scenarios with the same numbers are the same experiment, exactly
        like :class:`~repro.serve.requests.SolveScenario`); includes
        every numeric knob because any of them changes the trajectory,
        the module's stepping constants too (``warm=True``: every warm
        step starts from the velocity predictor).
        """
        return content_digest(
            f"fam={self.family}|res={self.resolution_km!r}|nz={self.num_layers}|"
            f"ns={NEWTON_STEPS}|steps={self.num_steps}|dt={DT_YEARS!r}|"
            f"cfl={CFL_SAFETY!r}|rtol={NEWTON_RTOL!r}|"
            f"warm=True|ce={CHECKPOINT_EVERY}|"
            f"forcing={self.forcing}|amp={self.forcing_amplitude!r}|"
            f"rampyr={FORCING_RAMP_YEARS!r}|"
            f"np={self.num_particles}|pseed={self.particle_seed}"
        )

    def to_config(self) -> AntarcticaConfig:
        """The buildable problem configuration (what the ArtifactCache's
        default builder asks of any scenario, as of ``SolveScenario``)."""
        return AntarcticaConfig(
            resolution_km=self.resolution_km,
            num_layers=self.num_layers,
            family=self.family,
            velocity=VelocityConfig(newton_steps=NEWTON_STEPS),
        )

    def with_steps(self, num_steps: int) -> "TransientScenario":
        """Same experiment truncated/extended to ``num_steps`` steps."""
        return replace(self, num_steps=num_steps)


#: the curated scenario library, keyed by name
SCENARIOS: dict[str, TransientScenario] = {
    s.name: s
    for s in (
        TransientScenario(
            name="antarctica-closed",
            description=(
                "Closed mass budget on the synthetic Antarctica: zero "
                "SMB/BMB over 20 coupled steps, so total ice volume is "
                "a strict invariant.  The `transient-closed-budget` oracle "
                "runs this scenario and demands volume drift at roundoff, "
                "warm-start speedup, and bitwise kill/resume."
            ),
            num_steps=20,
            forcing="none",
        ),
        TransientScenario(
            name="antarctica-retreat",
            description=(
                "Margin retreat: surface mass balance goes negative "
                "toward the ice-sheet margin (peak 2 m/yr of thinning), "
                "drawing the margin in while the interior stays fed."
            ),
            num_steps=12,
            forcing="retreat",
            forcing_amplitude=2.0,
        ),
        TransientScenario(
            name="greenland-ramp",
            description=(
                "Greenland forcing ramp: spatially uniform surface "
                "drawdown growing linearly to 1.5 m/yr over 200 years "
                "on the elongated single-dome Greenland family."
            ),
            family="greenland",
            resolution_km=200.0,
            num_layers=3,
            num_steps=10,
            forcing="ramp",
            forcing_amplitude=1.5,
        ),
        TransientScenario(
            name="shelf-collapse",
            description=(
                "Ice-shelf collapse: strong basal melt (10 m/yr) under "
                "floating ice only, computed against the evolving "
                "thickness's own floatation state each step.  Runs at "
                "250 km: coarser samplings ground the entire margin and "
                "the forcing never fires."
            ),
            resolution_km=250.0,
            num_steps=12,
            forcing="collapse",
            forcing_amplitude=10.0,
        ),
    )
}


def get_scenario(name: str) -> TransientScenario:
    """Library scenario by name (with a helpful error on a miss)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown transient scenario {name!r}; have: {known}") from None
