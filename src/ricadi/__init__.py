"""Low-rank ADI solvers for large-scale algebraic Riccati equations.

Computes factored approximations X = Z Z* with an exactly maintained
rank-p residual factor, via rational-Krylov ADI iterations that expand the
subspace by a batch of shifts per step; on real data each complex shift is
realified with its conjugate. The BRAD steps are reached as ricadi.brad.*, the shifted solves as
ricadi.shifted.*.
"""

from . import brad, shifted
from .oracle import dense_care, dense_residual
from .problems import (
    ProblemSpec,
    load_problem,
    read_matrix_market,
    read_shift_file,
    write_convergence_log,
)
from .shifts import HamiltonianShifts, PrecomputedShifts
from .solver import ConvergenceRecord, SolveResult, SolverOptions, solve

__all__ = [
    "ConvergenceRecord",
    "HamiltonianShifts",
    "PrecomputedShifts",
    "ProblemSpec",
    "SolveResult",
    "SolverOptions",
    "dense_care",
    "dense_residual",
    "load_problem",
    "read_matrix_market",
    "read_shift_file",
    "solve",
    "write_convergence_log",
]

__version__ = "0.1.0"
