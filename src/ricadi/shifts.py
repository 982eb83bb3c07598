"""Shift supply: precomputed lists and the residual Hamiltonian strategy."""

import cmath

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ShiftsExhaustedError, ShiftStrategyError
from .kernels import orthonormal_basis
from .shifted import Factor

_SCORE_CLAMP = 1e12


def admissible_shift(s):
    """Return s as a complex shift; it must be finite with positive real part."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"shift must be finite: {s}")
    if not s.real > 0:
        raise ValueError(f"shift real part must be positive: {s}")
    return s


class PrecomputedShifts:
    """Replays a fixed shift list in order; deterministic and order-preserving.

    Each batch slot takes one list entry, which is one shifted solve: on a
    real problem a complex entry stands for its conjugate pair (brad
    realifies it), and an entry right after it that equals its conjugate is
    consumed with it. A batch ends early at an entry already in it, where on
    a real problem an entry and its conjugate count as the same (parallel
    expansion needs pairwise distinct shifts). The cursor is the source's
    only state and is never reset: one instance replays its list once across
    all the solves it serves, so a second solve with it goes on where the
    first stopped. solve wraps a plain list in a fresh source.
    """

    def __init__(self, shifts):
        self.shifts = [admissible_shift(s) for s in shifts]
        if not self.shifts:
            raise ValueError("the shift list is empty")
        self.cursor = 0

    def next_shifts(self, state, problem, batch, system):
        if self.cursor >= len(self.shifts):
            raise ShiftsExhaustedError("no shifts remain")
        real = problem.is_real
        out = []
        while self.cursor < len(self.shifts) and len(out) < batch:
            s = self.shifts[self.cursor]
            if s in out or (real and s.conjugate() in out):
                break
            out.append(s)
            self.cursor += 1
            if (real and s.imag != 0 and self.cursor < len(self.shifts)
                    and self.shifts[self.cursor] == s.conjugate()):
                self.cursor += 1
        return out


class HamiltonianShifts:
    """Adaptive residual Hamiltonian strategy: one shift per step.

    The batch size is ignored. The shift is the scored Ritz value itself,
    whatever the sign of its Im; on real data brad realifies it with its
    conjugate. The projection window is the last 2p columns of Z: a step's
    window QR costs O(n l^2) and its eig O(l^3), and on the benchmark's
    workloads 2p takes about as many steps as 3p to 6p and the least
    shift-selection time (README, "Shift selection", has the measurements
    and the windows tried). E's factor is the solve's own, read from the
    ShiftedSystem it passes in, so the source has no state and one source
    may serve any number of solves. solve runs one when given no shifts.
    """

    def next_shifts(self, state, problem, batch, system):
        H = projected_hamiltonian(state, problem, 2 * problem.p, system.e_factor)
        return [_best_shift(H)]


def factor_e(E):
    """Return E's Factor, made by the Factor constructor's rule: dense LU of a
    copy below DENSE_LU_BELOW_N, dense or sparse E alike, and from there on
    SuperLU with its default ordering, called through this module's spla so
    that a trace of shifts.spla.splu sees E's factors apart from the shifted
    ones. E itself is never overwritten. solve factors E with this once per
    solve; a singular E raises ShiftStrategyError.
    """
    return Factor(sp.csr_matrix(E), spla.splu, "mass matrix E is singular",
                  ShiftStrategyError)


def projected_hamiltonian(state, problem, l, e_factor):
    """Assemble the 2u-by-2u projected residual Hamiltonian matrix.

    The basis U is an orthonormal span of the last min(l, q) stored columns
    of Z (the first call, before any expansion, uses the columns of C*
    instead). The closed-loop matrix acts through the cached feedback K,
    so only the window's columns of Z are read; with a mass matrix E present
    the action is evaluated in the E-transformed variables without forming
    inv(E) explicitly; e_factor is E's Factor, None exactly when E is None.
    """
    A, B, E = problem.A, problem.B, problem.E
    q = state.q
    if q == 0:
        base = problem.C.conj().T
    else:
        base = state.Z[:, max(q - l, 0):]
    U = orthonormal_basis(base)
    EU = U if E is None else e_factor.solve(U)
    # B* Z Z* U is K* EU, since K* = B* Z Z* E: O(n m l), not O(n q l)
    AtilU = A @ EU - B @ (state.K.conj().T @ EU)
    H11 = U.conj().T @ AtilU
    BtU = B.conj().T @ U
    H12 = BtU.conj().T @ BtU
    RtU = state.R.conj().T @ EU
    H21 = RtU.conj().T @ RtU
    top = np.hstack([H11, H12])
    bot = np.hstack([H21, -H11.conj().T])
    return np.vstack([top, bot])


def _best_shift(H):
    """Pick the next shift from the spectrum of a projected Hamiltonian H.

    Among eigenvalues lambda with Re(-lambda) > 0 the one maximizing
    ||q (q* r)^{-1} q*|| for the eigenvector split [r; q] wins; scores are
    clamped, ties broken by larger |Im| then lexicographically. The winner
    -lambda is returned as it is, so it is a Ritz value of -H.
    """
    u = H.shape[0] // 2
    w, V = np.linalg.eig(H)
    mus = -w
    V = V / np.linalg.norm(V, axis=0)
    r, qv = V[:u], V[u:]
    qn = np.linalg.norm(qv, axis=0)
    inner = np.abs(np.sum(qv.conj() * r, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.minimum(qn**2 / inner, _SCORE_CLAMP)
    score[qn == 0] = 0.0
    ok = np.flatnonzero(mus.real > 0)
    if not ok.size:
        raise ShiftStrategyError("shift strategy yielded no admissible shift")
    c = mus[ok]
    # lexsort: last key first; the largest key tuple sorts last
    mu = c[np.lexsort((-c.imag, -c.real, np.abs(c.imag), score[ok]))[-1]]
    if abs(mu.imag) <= 1e-14 * abs(mu.real):
        mu = complex(mu.real, 0.0)
    return complex(mu)
