"""Shift supply: precomputed lists and the residual Hamiltonian strategy."""

import cmath
import operator

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ShiftsExhaustedError, ShiftStrategyError
from .kernels import singular_pivots
from .shifted import solve_by_parts

_SCORE_CLAMP = 1e12


def admissible_shift(s):
    """Return s as a complex shift; it must be finite with positive real part."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"shift must be finite: {s}")
    if not s.real > 0:
        raise ValueError(f"shift real part must be positive: {s}")
    return s


def positive_int(name, value):
    """Return value as an int; it must be an integer of at least 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


class PrecomputedShifts:
    """Replays a fixed shift list in order; deterministic and order-preserving.

    Batches stop early at a duplicate (parallel expansion needs pairwise
    distinct shifts). On a real problem a complex entry is emitted as a
    conjugate pair, positive imaginary part first; an entry right after it
    that equals its conjugate is consumed with it. A pair joins the batch
    when both members fit; otherwise it starts the next batch, and a batch
    of one holds a pair on its own.
    """

    def __init__(self, shifts):
        self.shifts = [admissible_shift(s) for s in shifts]
        self.cursor = 0

    def next_shifts(self, state, problem, batch=1):
        if self.cursor >= len(self.shifts):
            raise ShiftsExhaustedError("no shifts remain")
        out = []
        while self.cursor < len(self.shifts) and len(out) < batch:
            s = self.shifts[self.cursor]
            new = [s]
            if s.imag != 0 and problem.is_real:
                new = [s, s.conjugate()] if s.imag > 0 else [s.conjugate(), s]
                if out and len(out) + 2 > batch:
                    break  # the pair does not fit; it starts the next batch
            if any(t in out for t in new):
                break
            out += new
            self.cursor += 1
            if (len(new) == 2 and self.cursor < len(self.shifts)
                    and self.shifts[self.cursor] == s.conjugate()):
                self.cursor += 1
        return out


class HamiltonianShifts:
    """Adaptive residual Hamiltonian strategy: one shift, or a pair on real data.

    The batch size is ignored: every step gets one shift (or one pair). The
    factor of E is made once and kept for the E object last seen, so a
    solve factors E once, not once per step.
    """

    def __init__(self, window=None):
        self.window = None if window is None else positive_int("window", window)
        self._e_factor = None  # (E, solve with E) for the E last seen

    def next_shifts(self, state, problem, batch=1):
        l = self.window if self.window is not None else 6 * problem.p
        H = projected_hamiltonian(state, problem, l, self._solve_e(problem.E))
        mu = _best_shift(H)
        if mu.imag != 0 and problem.is_real:
            return [mu, mu.conjugate()]
        return [mu]

    def _solve_e(self, E):
        if E is None:
            return None
        if self._e_factor is None or self._e_factor[0] is not E:
            self._e_factor = (E, factor_e(E))
        return self._e_factor[1]


def factor_e(E):
    """Return RHS -> E^{-1} RHS, with E factored once (SuperLU or dense LU).

    Raises ShiftStrategyError when E is singular. Drop the result on the
    thread that called this: a SuperLU factor dropped on another thread
    leaves its memory unreusable.
    """
    if sp.issparse(E):
        try:
            fac = spla.splu(E.tocsc())
        except RuntimeError as exc:
            raise ShiftStrategyError(f"mass matrix E is singular: {exc}") from exc
        pivots, solve = fac.U.diagonal(), fac.solve
    else:
        lu_piv = sla.lu_factor(E)
        pivots = np.diag(lu_piv[0])

        def solve(RHS):
            return sla.lu_solve(lu_piv, RHS)

    if singular_pivots(pivots):
        raise ShiftStrategyError("mass matrix E is singular")
    if np.iscomplexobj(E):
        return solve
    return lambda RHS: solve_by_parts(solve, RHS)


def projected_hamiltonian(state, problem, l, solve_e=None):
    """Assemble the 2u-by-2u projected residual Hamiltonian matrix.

    The basis U is an orthonormal span of the last min(l, q) stored columns
    of Z (the first call, before any expansion, uses the columns of C*
    instead). The closed-loop matrix acts through the cached feedback K,
    so only the window's columns of Z are read; with a mass matrix E present
    the action is evaluated in the E-transformed variables without forming
    inv(E) explicitly. solve_e applies inv(E) (factor_e(E) when omitted).
    """
    A, B, E = problem.A, problem.B, problem.E
    q = state.q
    if q == 0:
        base = problem.C.conj().T
    else:
        base = state.Z[:, max(q - l, 0):]
    U, _ = np.linalg.qr(base)
    EU = U if E is None else (solve_e or factor_e(E))(U)
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
    clamped, ties broken by larger |Im| then lexicographically.
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
    elif mu.imag < 0:
        mu = mu.conjugate()
    return complex(mu)
