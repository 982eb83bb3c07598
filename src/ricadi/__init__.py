"""Low-rank ADI solvers for large-scale algebraic Riccati equations.

Computes factored approximations X = Z Z* with an exactly maintained
rank-p residual factor, via rational-Krylov ADI iterations with simple,
parallel and realified subspace expansions.
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
from .kernels import (
    cholesky_upper,
    solve_lyapunov_small,
    solve_sylvester_small,
    spectral_norm_gram,
)
from .oracle import (
    closed_loop_pole_check,
    dense_care,
    dense_residual,
    rational_residual_factor,
)
from .problems import (
    ProblemSpec,
    load_problem,
    read_matrix_market,
    read_shift_file,
    write_convergence_log,
)
from .shifted import factorize, smw_solve, solve_factored
from .shifts import HamiltonianShifts, PrecomputedShifts, residual_hamiltonian_shift
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
    "cholesky_upper",
    "closed_loop_pole_check",
    "dense_care",
    "dense_residual",
    "expand_parallel",
    "expand_realified",
    "expand_simple",
    "factorize",
    "init_state",
    "load_problem",
    "rational_residual_factor",
    "read_matrix_market",
    "read_shift_file",
    "relative_residual",
    "residual_hamiltonian_shift",
    "smw_solve",
    "solve",
    "solve_factored",
    "solve_lyapunov_small",
    "solve_sylvester_small",
    "spectral_norm_gram",
    "write_convergence_log",
]

__version__ = "0.1.0"
