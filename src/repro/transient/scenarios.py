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

from dataclasses import dataclass, replace

from repro.app.config import AntarcticaConfig, VelocityConfig
from repro.store import content_digest

__all__ = ["TransientScenario", "SCENARIOS", "get_scenario", "FORCINGS"]

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
    newton_steps: int = 12  # per-solve Newton budget (headroom over cold)
    # -- stepping ------------------------------------------------------
    num_steps: int = 12
    dt_years: float = 50.0  # requested step; CFL may shorten it
    cfl_safety: float = 0.5  # fraction of the evolver's stable dt
    newton_rtol: float = 1.0e-6  # tol_abs = newton_rtol * ||F(0)|| cold
    warm_start: bool = True
    checkpoint_every: int = 5  # steps between checkpoints (0 = final only)
    # -- forcing -------------------------------------------------------
    forcing: str = "none"
    forcing_amplitude: float = 0.0  # [m/yr] peak mass-balance magnitude
    forcing_ramp_years: float = 200.0  # time to full amplitude ("ramp")
    # -- particles -----------------------------------------------------
    num_particles: int = 64
    particle_seed: int = 7

    def __post_init__(self):
        if self.family not in ("antarctica", "greenland"):
            raise ValueError(f"unknown ice-sheet family {self.family!r}")
        if self.forcing not in FORCINGS:
            raise ValueError(f"unknown forcing {self.forcing!r}; have {FORCINGS}")
        if self.num_steps <= 0 or self.dt_years <= 0.0:
            raise ValueError("num_steps and dt_years must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if self.newton_rtol <= 0.0:
            raise ValueError("newton_rtol must be positive")
        if self.num_particles < 0 or self.checkpoint_every < 0:
            raise ValueError("num_particles and checkpoint_every must be >= 0")

    @property
    def digest(self) -> str:
        """Stable content digest of the experiment identity.

        Excludes ``name`` and ``description`` (two differently-named
        scenarios with the same numbers are the same experiment, exactly
        like :class:`~repro.serve.requests.SolveScenario`); includes
        every numeric knob because any of them changes the trajectory.
        """
        return content_digest(
            f"fam={self.family}|res={self.resolution_km!r}|nz={self.num_layers}|"
            f"ns={self.newton_steps}|steps={self.num_steps}|dt={self.dt_years!r}|"
            f"cfl={self.cfl_safety!r}|rtol={self.newton_rtol!r}|"
            f"warm={self.warm_start}|ce={self.checkpoint_every}|"
            f"forcing={self.forcing}|amp={self.forcing_amplitude!r}|"
            f"rampyr={self.forcing_ramp_years!r}|"
            f"np={self.num_particles}|pseed={self.particle_seed}"
        )

    def to_config(self) -> AntarcticaConfig:
        """The buildable problem configuration (what the ArtifactCache's
        default builder asks of any scenario, as of ``SolveScenario``)."""
        return AntarcticaConfig(
            resolution_km=self.resolution_km,
            num_layers=self.num_layers,
            family=self.family,
            velocity=VelocityConfig(newton_steps=self.newton_steps),
        )

    def with_steps(self, num_steps: int) -> "TransientScenario":
        """Same experiment truncated/extended to ``num_steps`` steps."""
        return replace(self, num_steps=int(num_steps))


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
            forcing_ramp_years=200.0,
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
