"""Nonlinear/linear solver substrate (the Trilinos analogue).

MALI solves the discretized velocity equations with damped Newton; each
Newton step solves the linear system with GMRES preconditioned by a
matrix-dependent semicoarsening algebraic multigrid built for extruded
meshes (Tuminaro et al. 2016).  This package implements that stack:

* :mod:`~repro.solvers.gmres` -- restarted, right-preconditioned GMRES.
* :mod:`~repro.solvers.smoothers` -- damped Jacobi, vertical-line (block)
  Jacobi for extruded columns.
* :mod:`~repro.solvers.multigrid` -- two-level MDSC: vertical collapse of
  every column with line smoothing, the collapsed 2-D problem factored
  directly, applied as a V-cycle preconditioner.
* :mod:`~repro.solvers.newton` -- damped Newton with backtracking;
  inexact (Eisenstat-Walker forcing) for solves that stop on a target.
"""

from repro.solvers.gmres import GmresResult, gmres
from repro.solvers.reductions import BlockReducer, column_block_reducer
from repro.solvers.smoothers import JacobiSmoother, VerticalLineSmoother
from repro.solvers.multigrid import ColumnCollapseMdsc
from repro.solvers.newton import NewtonResult, forcing_term, newton_solve

__all__ = [
    "GmresResult",
    "gmres",
    "BlockReducer",
    "column_block_reducer",
    "JacobiSmoother",
    "VerticalLineSmoother",
    "ColumnCollapseMdsc",
    "NewtonResult",
    "forcing_term",
    "newton_solve",
]
