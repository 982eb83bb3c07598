"""Shift supply: precomputed lists and the residual Hamiltonian strategy."""

import cmath

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


class PrecomputedShifts:
    """Replays a fixed shift list in order; deterministic and order-preserving.

    Batches stop early at a duplicate (parallel expansion needs pairwise
    distinct shifts). On a real problem a complex entry is emitted as a
    conjugate pair in a batch of its own, positive imaginary part first; an
    entry right after it that equals its conjugate is consumed with it.
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
            if s.imag != 0 and problem.is_real:
                if out:
                    break  # a pair starts its own batch
                self.cursor += 1
                if (self.cursor < len(self.shifts)
                        and self.shifts[self.cursor] == s.conjugate()):
                    self.cursor += 1
                s = s if s.imag > 0 else s.conjugate()
                return [s, s.conjugate()]
            if s in out:
                break
            out.append(s)
            self.cursor += 1
        return out


class HamiltonianShifts:
    """Adaptive residual Hamiltonian strategy: one shift, or a pair on real data.

    The batch size is ignored: every step gets one shift (or one pair). The
    factor of E is made once and kept for the E object last seen, so a
    solve factors E once, not once per step.
    """

    def __init__(self, window=None):
        self.window = window
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
    instead). The closed-loop matrix acts through the cached low-rank
    factors; with a mass matrix E present the action is evaluated in the
    E-transformed variables without forming inv(E) explicitly. solve_e
    applies inv(E) (factor_e(E) when omitted).
    """
    A, B, E = problem.A, problem.B, problem.E
    q = state.q
    if q == 0:
        base = problem.C.conj().T
    else:
        base = state.Z[:, max(q - l, 0):]
    U, _ = np.linalg.qr(base)
    EU = U if E is None else (solve_e or factor_e(E))(U)
    AtilU = A @ EU - B @ (state.SB @ (state.Z.conj().T @ U))
    H11 = U.conj().T @ AtilU
    BtU = B.conj().T @ U
    H12 = BtU.conj().T @ BtU
    RtU = state.R.conj().T @ EU
    H21 = RtU.conj().T @ RtU
    top = np.hstack([H11, H12])
    bot = np.hstack([H21, -H11.conj().T])
    return np.vstack([top, bot])


def residual_hamiltonian_shift(state, problem, l):
    """Pick the next shift from the projected residual Hamiltonian spectrum.

    Among eigenvalues lambda with Re(-lambda) > 0 the one maximizing
    ||q (q* r)^{-1} q*|| for the eigenvector split [r; q] wins; scores are
    clamped, ties broken by larger |Im| then lexicographically.
    """
    return _best_shift(projected_hamiltonian(state, problem, l))


def _best_shift(H):
    u = H.shape[0] // 2
    w, V = np.linalg.eig(H)
    candidates = []
    for i in range(len(w)):
        mu = -w[i]
        if not mu.real > 0:
            continue
        v = V[:, i]
        v = v / np.linalg.norm(v)
        r, qv = v[:u], v[u:]
        qn = np.linalg.norm(qv)
        inner = np.vdot(qv, r)
        if qn == 0:
            score = 0.0
        elif inner == 0:
            score = _SCORE_CLAMP
        else:
            score = min(qn**2 / abs(inner), _SCORE_CLAMP)
        candidates.append((score, abs(mu.imag), -mu.real, -mu.imag, mu))
    if not candidates:
        raise ShiftStrategyError("shift strategy yielded no admissible shift")
    candidates.sort(key=lambda c: c[:4], reverse=True)
    mu = candidates[0][4]
    if abs(mu.imag) <= 1e-14 * abs(mu.real):
        mu = complex(mu.real, 0.0)
    elif mu.imag < 0:
        mu = mu.conjugate()
    return mu
