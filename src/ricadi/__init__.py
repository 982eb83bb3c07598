"""Low-rank ADI solvers for large-scale algebraic Riccati equations.

Computes factored approximations X = Z Z* with an exactly maintained
rank-p residual factor, via rational-Krylov ADI iterations that expand the
subspace by a batch of shifts per step, realifying conjugate pairs on real
data.
"""

from .brad import (
    BradState,
    ExpansionBlock,
    absorb_r2adi,
    absorb_radi,
    brad_residual_check,
    expand_parallel,
    expand_realified,
    expand_simple,
    init_state,
)
from .oracle import (
    closed_loop_pole_check,
    dense_care,
    dense_residual,
)
from .problems import (
    ProblemSpec,
    load_problem,
    read_matrix_market,
    read_shift_file,
    write_convergence_log,
)
from .shifts import HamiltonianShifts, PrecomputedShifts
from .solver import ConvergenceRecord, SolveResult, SolverOptions, relative_residual, solve

__all__ = [
    "BradState",
    "ConvergenceRecord",
    "ExpansionBlock",
    "HamiltonianShifts",
    "PrecomputedShifts",
    "ProblemSpec",
    "SolveResult",
    "SolverOptions",
    "absorb_r2adi",
    "absorb_radi",
    "brad_residual_check",
    "closed_loop_pole_check",
    "dense_care",
    "dense_residual",
    "expand_parallel",
    "expand_realified",
    "expand_simple",
    "init_state",
    "load_problem",
    "read_matrix_market",
    "read_shift_file",
    "relative_residual",
    "solve",
    "write_convergence_log",
]

__version__ = "0.1.0"
