"""Shift supply: precomputed lists and the residual Hamiltonian strategy."""

import cmath

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ShiftsExhaustedError, ShiftStrategyError

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
    distinct shifts) and, when conjugate pairing is requested, a complex
    entry followed by its conjugate is emitted together as a pair.
    """

    def __init__(self, shifts):
        self.shifts = [admissible_shift(s) for s in shifts]
        self.cursor = 0

    def next_shifts(self, state, problem, batch=1, pair_complex=False):
        if self.cursor >= len(self.shifts):
            raise ShiftsExhaustedError("no shifts remain")
        out = []
        while self.cursor < len(self.shifts) and len(out) < batch:
            s = self.shifts[self.cursor]
            if pair_complex and s.imag != 0:
                if out:
                    break  # a pair starts its own batch
                self.cursor += 1
                if (self.cursor < len(self.shifts)
                        and self.shifts[self.cursor] == s.conjugate()):
                    self.cursor += 1
                return [s, s.conjugate()]
            if s in out:
                break
            out.append(s)
            self.cursor += 1
        return out


class HamiltonianShifts:
    """Adaptive residual Hamiltonian strategy; emits one shift or one pair."""

    def __init__(self, window=None):
        self.window = window

    def next_shifts(self, state, problem, batch=1, pair_complex=False):
        l = self.window if self.window is not None else 6 * problem.p
        mu = residual_hamiltonian_shift(state, problem, l)
        if mu.imag != 0 and problem.is_real:
            return [mu, mu.conjugate()]
        return [mu]


def _solve_with(M, RHS):
    if sp.issparse(M):
        return spla.splu(M.tocsc()).solve(RHS)
    return np.linalg.solve(M, RHS)


def projected_hamiltonian(state, problem, l):
    """Assemble the 2u-by-2u projected residual Hamiltonian matrix.

    The basis U is an orthonormal span of the last min(l, q) stored columns
    of Z (the first call, before any expansion, uses the columns of C*
    instead). The closed-loop matrix acts through the cached low-rank
    factors; with a mass matrix E present the action is evaluated in the
    E-transformed variables without forming inv(E) explicitly.
    """
    A, B, E = problem.A, problem.B, problem.E
    q = state.q
    if q == 0:
        base = problem.C.conj().T
    else:
        base = state.Z[:, max(q - l, 0):]
    U, _ = np.linalg.qr(base)
    EU = U if E is None else _solve_with(E, U)
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
    H = projected_hamiltonian(state, problem, l)
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
