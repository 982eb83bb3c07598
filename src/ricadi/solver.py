"""Top-level iteration: pull shifts, expand, absorb, track convergence."""

import operator
import time
from dataclasses import dataclass

import numpy as np

from . import brad, shifted, shifts as shift_sources
from .errors import ExpansionDegenerateError, ShiftsExhaustedError
from .kernels import spectral_norm_gram
from .oracle import residual_defect
from .shifts import HamiltonianShifts, PrecomputedShifts

MODES = ("r2adi", "radi", "hybrid")

# An open-loop step whose correction Ztil - Z Y12 amplifies roundoff by more
# than this factor (BradState.gram_cancellation) is redone with the
# closed-loop body, which corrects nothing. Seen (max_cancellation of
# tests/bitwise_digest.py): at most 0.051 and 1.7e-3 on the small-batch and
# cd2d inputs and 1e5 on fem1d, with no step redone; 3.9e8 and 1.6e13 on a
# step of the two FEM redo tests' inputs at a 6p window, whose converged
# factors then have a residual defect of 3e-11 and 1e-7 instead of 5e-14.
# oracle.residual_defect only detects such an answer (solve then reports it
# unconverged); the redo turns it into a right one.
MAX_GRAM_CANCELLATION = 1e6


def positive_int(name, value):
    """Return value as an int; it must be an integer of at least 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


@dataclass
class SolverOptions:
    mode: str = "r2adi"
    tol: float = 1e-9
    max_iter: int = 200
    parallel_width: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        self.max_iter = positive_int("max_iter", self.max_iter)
        self.parallel_width = positive_int("parallel_width", self.parallel_width)


@dataclass
class ConvergenceRecord:
    """One step's residual, shifts and times.

    shifts lists the distinct poles of the absorbed block in order (both
    members of a realified pair). shift_s is the time the shift source took
    to supply the batch, expansion_s the time of the expansion, absorb_s
    that of the absorption; total_s covers all three. closed_loop says which
    body absorbed the step; redone that an open-loop absorption of it was
    discarded for cancellation or a degenerate Gram (absorb_s then includes
    the closed-loop expansion that replaced it). kind is the absorbed
    block's ExpansionBlock.kind: 'simple', 'parallel' or 'realified'. The
    convergence log stores the times but not shifts, closed_loop, redone or
    kind.
    """

    iter: int
    subspace_dim: int
    rel_residual: float
    expansion_s: float
    absorb_s: float
    total_s: float
    closed_loop: bool = False
    redone: bool = False
    shift_s: float = 0.0
    shifts: tuple = ()
    kind: str = ""


@dataclass
class SolveResult:
    Z: np.ndarray
    R: np.ndarray
    records: list
    state: object
    converged: bool
    rel_residual: float
    message: str = ""


def relative_residual(state, norm_cc):
    """||R R*||_2 / norm_cc, norm_cc = ||C* C||_2, via the p-by-p Gram of R."""
    return spectral_norm_gram(state.R) / norm_cc


def solve(problem, options=None, shifts=None, callback=None):
    """Run the Riccati ADI iteration until the residual drops below tol.

    shifts is a shift source (PrecomputedShifts / HamiltonianShifts) or a
    nonempty list of shifts, used as given; with shifts=None the solve runs
    HamiltonianShifts(). Each batch is one brad.expand_parallel step; on
    real data a complex shift is its realified conjugate pair, one solve and
    one batch slot, and the state stays real. Hybrid mode switches from the
    open-loop to the closed-loop body once q >= max(p, min(n // 20, 100)).
    An open-loop step whose Gram is not positive definite or amplifies
    roundoff by more than MAX_GRAM_CANCELLATION is redone with the
    closed-loop body; hybrid mode then stays closed-loop. Convergence is
    reported only if oracle.residual_defect's estimate of the answer's
    ||R(Z Z*) - R R*|| / ||C* C|| is at most tol too. The optional
    callback(state, record) is invoked after every absorption step. A* and
    E* are assembled, and E factored (shifts.factor_e), once per solve in a
    shifted.ShiftedSystem that every step's factorizations and next_shifts
    share and that the solve drops when it returns.
    """
    options = options or SolverOptions()
    if shifts is None:
        shifts = HamiltonianShifts()
    source = shifts if hasattr(shifts, "next_shifts") else PrecomputedShifts(shifts)
    hybrid_switch = max(problem.p, min(problem.n // 20, 100))

    state = brad.init_state(problem)
    norm_cc = spectral_norm_gram(state.R)
    if not norm_cc > 0:
        # C* C is zero or underflows, so no residual can be relative to it
        raise ValueError("C must not be zero: residuals are relative to ||C* C||")
    e_factor = None if problem.E is None else shift_sources.factor_e(problem.E)
    system = shifted.ShiftedSystem(problem.A, problem.E, e_factor)
    records = []
    relres = 1.0
    converged = relres < options.tol
    message = ""
    stay_closed = False
    for it in range(1, options.max_iter + 1):
        if converged:
            break
        t0 = time.perf_counter()
        try:
            batch = source.next_shifts(state, problem, options.parallel_width, system)
        except ShiftsExhaustedError:
            message = "not converged: shift source exhausted"
            break
        t_shift = time.perf_counter()
        if options.mode == "radi":
            closed_loop = True
        elif options.mode == "r2adi":
            closed_loop = False
        else:
            closed_loop = stay_closed or state.q >= hybrid_switch

        block = brad.expand_parallel(state, problem, batch, system, closed_loop)
        t1 = time.perf_counter()
        redone = False
        if closed_loop:
            new = brad.absorb_radi(state, problem, block)
        else:
            try:
                new = brad.absorb_r2adi(state, problem, block)
                redone = new.gram_cancellation > MAX_GRAM_CANCELLATION
            except ExpansionDegenerateError:
                redone = True
            if redone:
                closed_loop = stay_closed = True
                block = brad.expand_parallel(state, problem, batch, system,
                                             closed_loop)
                new = brad.absorb_radi(state, problem, block)
        state = new
        t2 = time.perf_counter()

        relres = relative_residual(state, norm_cc)
        rec = ConvergenceRecord(
            iter=it, subspace_dim=state.q, rel_residual=relres,
            expansion_s=t1 - t_shift, absorb_s=t2 - t1, total_s=t2 - t0,
            closed_loop=closed_loop, redone=redone,
            shift_s=t_shift - t0, shifts=tuple(dict.fromkeys(block.poles)),
            kind=block.kind,
        )
        records.append(rec)
        if callback is not None:
            callback(state, rec)
        converged = relres < options.tol
    state = brad.trimmed(state)
    if converged:
        defect = residual_defect(problem, state.Z, state.R)
        if not defect <= options.tol:
            converged = False
            message = (f"not converged: residual defect {defect:.2e} exceeds "
                       f"tol = {options.tol:.2e}: R R* is not the residual of Z Z*")
    elif not message:
        message = "not converged: max_iter reached"
    return SolveResult(Z=state.Z, R=state.R, records=records, state=state,
                       converged=converged, rel_residual=relres, message=message)
