"""The autotuner as a report: per-(mesh, GPU) measurements, nothing written.

The paper's Table II shows ~1.5x sitting in a LaunchBounds choice; the
preconditioner and operator-mode axes added since could hide comparable
factors.  The two sets of axes do not interact, so this package decides
them separately:

* :mod:`repro.tune.space` -- the two axis lists: launchable kernel
  configurations, and the solver configurations worth a trial;
* :mod:`repro.tune.prior` -- the gpusim byte/occupancy model of the
  evaluator kernels, which decides the kernel axes and prices every
  trial's sweeps;
* :mod:`repro.tune.tuner` -- one measured trial per solver
  configuration, all at the same kernel axes, scored by deterministic
  counters (GMRES iterations, metered solver bytes, evaluator sweeps),
  with wall time advisory only.

``python -m repro tune`` prints the trial table and the winner; no solve
reads it back.  Should a mesh ever name something other than the
hand-picked default, the default is what changes.
"""

from repro.tune.prior import GpusimPrior
from repro.tune.space import TuneCandidate, kernel_axes, solver_axes
from repro.tune.tuner import AutoTuner, TrialResult, TuneReport

__all__ = [
    "GpusimPrior",
    "TuneCandidate",
    "kernel_axes",
    "solver_axes",
    "AutoTuner",
    "TrialResult",
    "TuneReport",
]
