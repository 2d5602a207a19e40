"""Online autotuner with persisted per-(mesh, GPU) configurations.

The paper's Table II shows ~1.5x sitting in a LaunchBounds choice; the
smoother and operator-mode axes added by PRs 1-6 hide comparable
factors.  This package picks all of them automatically:

* :mod:`repro.tune.space` -- the discrete candidate space;
* :mod:`repro.tune.prior` -- the gpusim byte/occupancy model as the
  search prior (kernel axes decided by the model, solver axes ranked
  for measured trials);
* :mod:`repro.tune.tuner` -- the trial loop over real solves, scored by
  deterministic counters (GMRES iterations, metered solver bytes,
  evaluator sweeps), with wall time advisory only;
* :mod:`repro.tune.cache` -- schema-versioned JSON persistence keyed by
  ``(mesh key, GPU spec)``, reused transparently by
  ``VelocityConfig(tuned="auto")`` and warmed by ``python -m repro
  tune``.
"""

from repro.tune.cache import (
    SCHEMA_VERSION,
    TuneCache,
    TuneRecord,
    cache_key,
    default_cache_path,
)
from repro.tune.prior import GpusimPrior, PriorScore, ProblemModel
from repro.tune.space import DEFAULT_SPACE, TuneCandidate, TuneSpace, candidate_from_config
from repro.tune.tuner import (
    DEFAULT_TRIAL_BUDGET,
    AutoTuner,
    TrialResult,
    TuneReport,
    tuned_velocity_config,
)

__all__ = [
    "SCHEMA_VERSION",
    "TuneCache",
    "TuneRecord",
    "cache_key",
    "default_cache_path",
    "GpusimPrior",
    "PriorScore",
    "ProblemModel",
    "DEFAULT_SPACE",
    "TuneCandidate",
    "TuneSpace",
    "candidate_from_config",
    "DEFAULT_TRIAL_BUDGET",
    "AutoTuner",
    "TrialResult",
    "TuneReport",
    "tuned_velocity_config",
]
