"""The running block rational Arnoldi decomposition (BRAD).

The state is kept in the normalized form where the small Lyapunov equation
associated with the decomposition is solved by the identity, so the current
approximate solution is simply X = Z Z*. Expansion adds new poles (simple,
parallel or realified); absorption restores the normalization.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import shifted
from .errors import ExpansionDegenerateError, NotPositiveDefiniteError
from .kernels import (
    cholesky_upper,
    eigenvalue_match_distance,
    solve_lyapunov_small,
    solve_sylvester_small,
)
from .shifts import admissible_shift


@dataclass
class BradState:
    """Normalized BRAD state: X = Z Z* and residual R(X) = R R*.

    Z holds the accumulated n-by-q basis, h and Hminus the small
    decomposition matrices, SB caches B*Z, R the rank-p residual factor and
    K the feedback E*Z(Z*B). Hminus is (quasi-)upper-triangular by
    construction; its eigenvalues are the recorded poles.
    """

    n: int
    p: int
    m: int
    Z: np.ndarray
    h: np.ndarray
    Hminus: np.ndarray
    SB: np.ndarray
    R: np.ndarray
    K: np.ndarray
    poles: list = field(default_factory=list)

    @property
    def q(self):
        return self.Z.shape[1]

    def copy(self):
        return BradState(
            n=self.n, p=self.p, m=self.m,
            Z=self.Z.copy(), h=self.h.copy(), Hminus=self.Hminus.copy(),
            SB=self.SB.copy(), R=self.R.copy(), K=self.K.copy(),
            poles=list(self.poles),
        )


@dataclass
class ExpansionBlock:
    """One expansion step before absorption: basis block and bookkeeping."""

    Ztil: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    D: np.ndarray
    kind: str  # 'simple' | 'parallel' | 'realified'
    poles: list
    closed_loop: bool


def _emul(E, M):
    """E* @ M, identity when E is absent."""
    if E is None:
        return M
    return E.conj().T @ M


def init_state(problem):
    """Fresh empty state: R = C*, K = 0, no basis columns yet."""
    n, p, m = problem.n, problem.p, problem.m
    dtype = np.float64 if problem.is_real else np.complex128
    return BradState(
        n=n, p=p, m=m,
        Z=np.zeros((n, 0), dtype=dtype),
        h=np.zeros((p, 0), dtype=dtype),
        Hminus=np.zeros((0, 0), dtype=dtype),
        SB=np.zeros((m, 0), dtype=dtype),
        R=problem.C.conj().T.astype(dtype, copy=True),
        K=np.zeros((n, m), dtype=dtype),
        poles=[],
    )


def _expansion_solve(state, problem, mu, closed_loop):
    f = shifted.factorize(problem.A, problem.E, mu)
    if closed_loop and state.m > 0:
        return shifted.smw_solve(f, state.K, problem.B, state.R)
    return shifted.solve_factored(f, state.R)


def expand_simple(state, problem, mu, closed_loop=False):
    """Expand by a single shift: one system solve with the residual factor."""
    return expand_parallel(state, problem, [mu], closed_loop)


def expand_parallel(state, problem, shifts, closed_loop=False):
    """Expand by l >= 1 pairwise distinct shifts.

    One system solve with the residual factor per shift; for l > 1 the
    solves run concurrently, one thread per shift.
    """
    shifts = [admissible_shift(mu) for mu in shifts]
    for i, a in enumerate(shifts):
        if a in shifts[i + 1:]:
            raise ValueError(f"parallel shifts must be pairwise distinct: {a}")
    p, l = state.p, len(shifts)
    if l == 1:
        Ztil = _expansion_solve(state, problem, shifts[0], closed_loop)
    else:
        with ThreadPoolExecutor(max_workers=l) as pool:
            Ztil = np.hstack(list(pool.map(
                lambda mu: _expansion_solve(state, problem, mu, closed_loop),
                shifts)))
    poles = [mu for mu in shifts for _ in range(p)]
    real = not np.iscomplexobj(Ztil) and all(mu.imag == 0 for mu in shifts)
    dtype = np.float64 if real else np.complex128
    # U1, U2 and D are built in C order: their layout sets the BLAS rounding
    # of the absorption products, hence the iterates.
    return ExpansionBlock(
        Ztil=Ztil,
        U1=np.tile(np.eye(p, dtype=dtype), l),
        U2=np.tile(state.h.conj().T, l).astype(dtype, order="C"),
        D=np.diag(np.array(poles).real if real else np.array(poles)),
        kind="simple" if l == 1 else "parallel",
        poles=poles,
        closed_loop=closed_loop,
    )


def expand_realified(state, problem, mu, closed_loop=False):
    """Expand a real state by the conjugate pair (mu, conj(mu)).

    A single complex solve supplies the pair; the real and imaginary parts
    are interleaved per column so the new diagonal block of the small matrix
    is block diagonal with 2-by-2 rotation-like blocks. All outputs real.
    """
    mu = admissible_shift(mu)
    if mu.imag == 0:
        raise ValueError("realified expansion requires a genuinely complex shift")
    if not problem.is_real or np.iscomplexobj(state.Z) or np.iscomplexobj(state.R):
        raise ValueError("realification requires real data")
    p = state.p
    W = _expansion_solve(state, problem, mu, closed_loop)
    Ztil = np.empty((state.n, 2 * p), dtype=np.float64)
    Ztil[:, 0::2] = W.real
    Ztil[:, 1::2] = W.imag
    U1 = np.zeros((p, 2 * p))
    U1[:, 0::2] = np.eye(p)
    D = np.kron(np.eye(p), np.array([[mu.real, mu.imag], [-mu.imag, mu.real]]))
    return ExpansionBlock(Ztil=Ztil, U1=U1, U2=state.h.conj().T @ U1, D=D,
                          kind="realified", poles=[mu, mu.conjugate()] * p,
                          closed_loop=closed_loop)


def _right_divide_upper(X, G):
    """X @ inv(G) for upper triangular G."""
    if X.shape[0] == 0 or G.shape[0] == 0:
        return X.astype(np.result_type(X.dtype, G.dtype))
    return sla.solve_triangular(G.T, X.T, lower=True).T


def _append(state, problem, Zhat, U1hat, U2hat, Dhat, poles):
    E = problem.E
    EZhat = _emul(E, Zhat)
    q_old = state.q
    t = Zhat.shape[1]
    Hnew = np.zeros((q_old + t, q_old + t),
                    dtype=np.result_type(state.Hminus.dtype, Dhat.dtype))
    Hnew[:q_old, :q_old] = state.Hminus
    Hnew[:q_old, q_old:] = U2hat
    Hnew[q_old:, q_old:] = Dhat
    state.Hminus = Hnew
    state.Z = np.hstack([state.Z, Zhat]) if q_old else Zhat
    state.h = np.hstack([state.h, U1hat]) if q_old else U1hat
    SBhat = problem.B.conj().T @ Zhat
    state.SB = np.hstack([state.SB, SBhat]) if q_old else SBhat
    state.R = state.R + EZhat @ U1hat.conj().T
    state.K = state.K + EZhat @ (Zhat.conj().T @ problem.B)
    state.poles = state.poles + list(poles)
    return state


def _absorb(state, problem, block, gram, Zt, U1t, U2t):
    """Shared tail of both absorption bodies.

    Divides the corrected block by the Cholesky factor G22 of its Gram matrix
    and appends it to a new state; the input state is not mutated.
    """
    try:
        G22 = cholesky_upper(gram)
    except NotPositiveDefiniteError as exc:
        raise ExpansionDegenerateError(
            f"expansion degenerate (near-deflation or repeated pole): {exc}"
        ) from exc
    U1hat = _right_divide_upper(U1t, G22)
    U2hat = _right_divide_upper(U2t, G22)
    Dhat = _right_divide_upper(G22 @ block.D, G22)
    Zhat = _right_divide_upper(Zt, G22)
    # _append only rebinds fields, so a shallow copy keeps `state` intact.
    return _append(replace(state), problem, Zhat, U1hat, U2hat,
                   Dhat, block.poles)


def absorb_r2adi(state, problem, block):
    """Absorb an open-loop expansion block (Riccati RAD iteration body)."""
    Ztil, U1, U2, D = block.Ztil, block.U1, block.U2, block.D
    BtZt = problem.B.conj().T @ Ztil
    Y12 = solve_sylvester_small(state.Hminus.conj().T, D,
                                state.SB.conj().T @ BtZt)
    rhs22 = (BtZt.conj().T @ BtZt + U1.conj().T @ U1
             - Y12.conj().T @ U2 - U2.conj().T @ Y12)
    Y22 = solve_lyapunov_small(D, rhs22)
    return _absorb(state, problem, block, Y22 - Y12.conj().T @ Y12,
                   -state.Z @ Y12 + Ztil, -state.h @ Y12 + U1,
                   -state.Hminus @ Y12 + U2 + Y12 @ D)


def absorb_radi(state, problem, block):
    """Absorb a closed-loop expansion block (Lyapunov RADI iteration body)."""
    if not block.closed_loop and state.m > 0 and np.any(state.K):
        raise ValueError("absorb_radi requires a closed-loop expansion block")
    Ztil, U1, U2, D = block.Ztil, block.U1, block.U2, block.D
    BtZt = problem.B.conj().T @ Ztil
    Y22 = solve_lyapunov_small(D, BtZt.conj().T @ BtZt + U1.conj().T @ U1)
    return _absorb(state, problem, block, Y22, Ztil, U1,
                   U2 + state.SB.conj().T @ BtZt)


def brad_residual_check(state, problem):
    """Defect norms of the state invariants, each scaled per its tolerance."""
    A, E = problem.A, problem.E
    Cstar = problem.C.conj().T
    Z, h, Hm = state.Z, state.h, state.Hminus
    out = {}
    if state.q == 0:
        return {"brad_identity": 0.0, "lyap_identity": 0.0,
                "residual_factor": 0.0, "poles": 0.0,
                "sb_cache": 0.0, "feedback": 0.0}
    # A* Z = C* h + E* Z Hminus, the decomposition identity in the
    # E-transformed variables without forming inv(E).
    AZ = A.conj().T @ Z
    defect = AZ - Cstar @ h - _emul(E, Z) @ Hm
    a_norm = sp.linalg.norm(A, 1) if sp.issparse(A) else np.linalg.norm(A, 1)
    z_norm = np.linalg.norm(Z)
    scale = a_norm * z_norm + z_norm * np.linalg.norm(Hm) + 1e-300
    out["brad_identity"] = float(np.linalg.norm(defect) / scale)

    gram = state.SB.conj().T @ state.SB + h.conj().T @ h
    lyap = Hm + Hm.conj().T - gram
    out["lyap_identity"] = float(
        np.linalg.norm(lyap) / max(np.linalg.norm(Hm), 1e-300))

    rref = Cstar + _emul(E, Z) @ h.conj().T
    r_scale = max(np.linalg.norm(rref), np.linalg.norm(Cstar), 1e-300)
    out["residual_factor"] = float(np.linalg.norm(state.R - rref) / r_scale)

    out["poles"] = eigenvalue_match_distance(np.linalg.eigvals(Hm), state.poles)

    sb = problem.B.conj().T @ Z
    out["sb_cache"] = float(np.linalg.norm(state.SB - sb) /
                            max(np.linalg.norm(sb), 1.0))
    kref = _emul(E, Z) @ (Z.conj().T @ problem.B)
    out["feedback"] = float(np.linalg.norm(state.K - kref) /
                            max(np.linalg.norm(kref), 1.0))
    return out
