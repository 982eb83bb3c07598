"""Top-level iteration: pull shifts, expand, absorb, track convergence."""

import time
from dataclasses import dataclass

import numpy as np

from . import brad
from .errors import ShiftsExhaustedError
from .kernels import spectral_norm_gram
from .shifts import PrecomputedShifts

MODES = ("r2adi", "radi", "hybrid")


@dataclass
class SolverOptions:
    mode: str = "r2adi"
    tol: float = 1e-9
    max_iter: int = 200
    parallel_width: int = 1
    realify: bool = None  # None = on iff the problem is real

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be at least 1")


@dataclass
class ConvergenceRecord:
    iter: int
    subspace_dim: int
    rel_residual: float
    expansion_s: float
    absorb_s: float
    total_s: float


@dataclass
class SolveResult:
    Z: np.ndarray
    R: np.ndarray
    records: list
    state: object
    converged: bool
    rel_residual: float
    message: str = ""


def relative_residual(state, problem, norm_cc=None):
    """||R R*||_2 / ||C* C||_2 via p-by-p Gram matrices only."""
    if norm_cc is None:
        norm_cc = spectral_norm_gram(problem.C.conj().T)
    return spectral_norm_gram(state.R) / norm_cc


def solve(problem, options=None, shifts=None, callback=None):
    """Run the Riccati ADI iteration until the residual drops below tol.

    shifts is a shift source (PrecomputedShifts / HamiltonianShifts) or a
    plain list of shifts. Hybrid mode switches from the open-loop to the
    closed-loop body once q >= max(p, min(n // 20, 100)). The optional
    callback(state, record) is invoked after every absorption step.
    """
    options = options or SolverOptions()
    if shifts is None:
        raise ValueError("a shift source is required")
    source = shifts if hasattr(shifts, "next_shifts") else PrecomputedShifts(shifts)
    realify = options.realify if options.realify is not None else problem.is_real
    realify = realify and problem.is_real
    hybrid_switch = max(problem.p, min(problem.n // 20, 100))

    state = brad.init_state(problem)
    norm_cc = spectral_norm_gram(state.R)
    records = []
    relres = 1.0
    converged = relres < options.tol
    message = ""
    for it in range(1, options.max_iter + 1):
        if converged:
            break
        t0 = time.perf_counter()
        try:
            batch = source.next_shifts(state, problem, batch=options.parallel_width,
                                       pair_complex=realify)
        except ShiftsExhaustedError:
            message = "not converged: shift source exhausted"
            break
        if options.mode == "radi":
            closed_loop = True
        elif options.mode == "r2adi":
            closed_loop = False
        else:
            closed_loop = state.q >= hybrid_switch

        if realify and any(mu.imag != 0 for mu in batch):
            mu = next(m for m in batch if m.imag != 0)
            if mu.imag < 0:
                mu = mu.conjugate()
            block = brad.expand_realified(state, problem, mu, closed_loop)
        else:
            block = brad.expand_parallel(state, problem, batch, closed_loop)
        t1 = time.perf_counter()
        if closed_loop:
            state = brad.absorb_radi(state, problem, block)
        else:
            state = brad.absorb_r2adi(state, problem, block)
        t2 = time.perf_counter()

        relres = spectral_norm_gram(state.R) / norm_cc
        rec = ConvergenceRecord(
            iter=it, subspace_dim=state.q, rel_residual=relres,
            expansion_s=t1 - t0, absorb_s=t2 - t1, total_s=t2 - t0,
        )
        records.append(rec)
        if callback is not None:
            callback(state, rec)
        converged = relres < options.tol
    if not converged and not message:
        message = "not converged: max_iter reached"
    return SolveResult(Z=state.Z, R=state.R, records=records, state=state,
                       converged=converged, rel_residual=relres, message=message)
