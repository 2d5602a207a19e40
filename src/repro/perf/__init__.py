"""Performance models from the paper's Section VI.

* :mod:`~repro.perf.theoretical` -- theoretical minimum HBM data
  movement from the kernel's array inventory (the "application wall").
* :mod:`~repro.perf.roofline` -- the classic Roofline model (Fig. 3).
* :mod:`~repro.perf.time_model` -- the paper's contribution: the
  time-oriented performance portability plane (Figs. 4-5).
* :mod:`~repro.perf.portability` -- e_time / e_DM efficiencies and the
  Pennycook harmonic-mean metric Phi (Table IV, Eq. 4).
* :mod:`~repro.perf.paper` -- the paper's experiment, defined once: the
  eight profiles, their one ``e_time``/``e_DM``/Phi reading, the values the
  paper quotes, and the rows of Tables II-IV and Figs. 3/5.
* :mod:`~repro.perf.report` -- table renderers, CSV emitters, and ASCII
  plots used by the benchmark harness.
"""

from repro.perf.theoretical import TheoreticalMovement, theoretical_minimum
from repro.perf.roofline import RooflinePoint, RooflineModel
from repro.perf.time_model import TimeOrientedPoint, TimeOrientedModel
from repro.perf.portability import (
    performance_portability,
    efficiency_time,
    efficiency_data_movement,
)
from repro.perf.report import format_table, ascii_scatter, write_csv

__all__ = [
    "TheoreticalMovement",
    "theoretical_minimum",
    "RooflinePoint",
    "RooflineModel",
    "TimeOrientedPoint",
    "TimeOrientedModel",
    "performance_portability",
    "efficiency_time",
    "efficiency_data_movement",
    "format_table",
    "ascii_scatter",
    "write_csv",
]
