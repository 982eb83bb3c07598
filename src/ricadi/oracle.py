"""Verification: dense CARE solver, exact residual and state identities.

This module imports no other ricadi module and shares no kernels with the
iterative solver beyond elementary dense linear algebra, so it can serve as
an independent oracle. solve uses residual_defect alone, to confirm a
converged answer. It reads a ProblemSpec as that class stores it: A and E
sparse, B and C dense.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# Largest n the dense reference computations accept.
DENSE_ORACLE_MAX_N = 500


@dataclass
class DenseSolution:
    X: np.ndarray
    closed_loop_spectrum: np.ndarray


def dense_care(problem):
    """Stabilizing solution of the (generalized) Riccati equation, dense.

    Solved via the ordered Schur/QZ decomposition of the associated
    Hamiltonian pencil. Requires (A, B) stabilizable and (C, A) detectable.
    """
    n = problem.n
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense solver limited to n <= {DENSE_ORACLE_MAX_N}")
    A, B, C = problem.A.toarray(), problem.B, problem.C
    E = None if problem.E is None else problem.E.toarray()
    CtC = C.conj().T @ C
    CtC = 0.5 * (CtC + CtC.conj().T)
    m = problem.m
    # The E-problem has the same solution X as the standard equation with
    # A E^{-1} and C E^{-1}; the explicit transformation is more accurate
    # here than the generalized pencil path.
    if E is None:
        Atil, Qtil = A, CtC
    else:
        Einv = np.linalg.inv(E)
        Atil = A @ Einv
        Qtil = Einv.conj().T @ CtC @ Einv
        Qtil = 0.5 * (Qtil + Qtil.conj().T)
    try:
        if m == 0:
            X = sla.solve_continuous_lyapunov(Atil.conj().T, -Qtil)
        else:
            X = sla.solve_continuous_are(Atil, B, Qtil, np.eye(m))
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError) as exc:
        raise RuntimeError(f"no stabilizing solution found: {exc}") from exc
    X = 0.5 * (X + X.conj().T)
    Acl = A - B @ (B.conj().T @ X) @ (E if E is not None else np.eye(n))
    if E is None:
        spec = np.linalg.eigvals(Acl)
    else:
        spec = sla.eigvals(Acl, E)
    if np.max(spec.real) >= 0:
        raise RuntimeError("no stabilizing solution found: closed loop unstable")
    wmin = np.linalg.eigvalsh(X).min()
    scale = max(np.linalg.norm(X, 2), 1.0)
    if wmin < -1e-10 * scale:
        raise RuntimeError(f"solution not positive semidefinite: {wmin:.3e}")
    _, res_norm = dense_residual(problem, X)
    if res_norm > 1e-8 * max(np.linalg.norm(CtC, 2), 1e-300):
        raise RuntimeError(f"dense solve residual too large: {res_norm:.3e}")
    return DenseSolution(X=X, closed_loop_spectrum=spec)


def dense_residual(problem, X):
    """Exact dense residual of the (generalized) Riccati equation and its 2-norm."""
    X = np.asarray(X)
    n = problem.n
    if X.shape != (n, n):
        raise ValueError(f"X must be {n}x{n}, got {X.shape}")
    A, B, C = problem.A.toarray(), problem.B, problem.C
    XE = X if problem.E is None else X @ problem.E.toarray()
    res = (A.conj().T @ XE + XE.conj().T @ A + C.conj().T @ C
           - XE.conj().T @ B @ (B.conj().T @ XE))
    return res, float(np.linalg.norm(res, 2))


def residual_defect(problem, Z, R):
    """Estimate ||R(Z Z*) - R R*||_2 / ||C* C||_2 without any n-by-n matrix.

    Three steps of block power iteration on the Hermitian defect operator M,
    from a fixed-seed random block of 4 vectors (complex on complex data), so
    an input always gets the same value. Each step's ||M Q||_2, Q orthonormal,
    is a lower bound of ||M||_2; the largest is returned. A step reads Z
    twice, for 8 columns each time: those passes are most of the cost.
    """
    A, B, C, E = problem.A, problem.B, problem.C, problem.E
    AH, EH, ZB = A.conj().T, None if E is None else E.conj().T, Z.conj().T @ B
    rng = np.random.default_rng(0)
    V = rng.standard_normal((problem.n, 4))
    if not problem.is_real:
        V = V + 1j * rng.standard_normal(V.shape)
    estimate = 0.0
    for _ in range(3):
        Q = np.linalg.qr(V)[0]
        k = Q.shape[1]
        G = Z.conj().T @ np.hstack([Q if E is None else E @ Q, A @ Q])
        G[:, k:] -= ZB @ (ZB.conj().T @ G[:, :k])
        W = Z @ G
        V = (AH @ W[:, :k] + (W[:, k:] if E is None else EH @ W[:, k:])
             + C.conj().T @ (C @ Q) - R @ (R.conj().T @ Q))
        estimate = max(estimate, float(np.linalg.norm(V, 2)))
    return estimate / float(np.linalg.norm(C, 2)) ** 2


def eigenvalue_match_distance(a, b):
    """Largest pairing distance between two equally sized eigenvalue multisets."""
    # imported here: scipy.optimize is costly to import and solve never needs it
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def brad_residual_check(state, problem):
    """Defect norms of the BRAD state invariants, each scaled per its tolerance.

    Every identity is evaluated from the problem and the state's fields, not
    through the solver's own kernels.
    """
    A, E = problem.A, problem.E
    Cstar = problem.C.conj().T
    Z, h, Hm, SB = state.Z, state.h, state.Hminus, state.SB
    if state.q == 0:
        return {"brad_identity": 0.0, "lyap_identity": 0.0,
                "residual_factor": 0.0, "poles": 0.0,
                "sb_cache": 0.0, "feedback": 0.0}
    out = {}
    EZ = Z if E is None else E.conj().T @ Z
    # A* Z = C* h + E* Z Hminus, the decomposition identity in the
    # E-transformed variables without forming inv(E).
    defect = A.conj().T @ Z - Cstar @ h - EZ @ Hm
    a_norm = sp.linalg.norm(A, 1)
    z_norm = np.linalg.norm(Z)
    scale = a_norm * z_norm + z_norm * np.linalg.norm(Hm) + 1e-300
    out["brad_identity"] = float(np.linalg.norm(defect) / scale)

    # Hm + Hm* = SB* SB + h* h: while it holds, R R* is the residual of Z Z*
    lyap = Hm + Hm.conj().T - (SB.conj().T @ SB + h.conj().T @ h)
    out["lyap_identity"] = float(np.linalg.norm(lyap)
                                 / max(np.linalg.norm(Hm), 1e-300))

    rref = Cstar + EZ @ h.conj().T
    r_scale = max(np.linalg.norm(rref), np.linalg.norm(Cstar), 1e-300)
    out["residual_factor"] = float(np.linalg.norm(state.R - rref) / r_scale)

    out["poles"] = eigenvalue_match_distance(np.linalg.eigvals(Hm), state.poles)

    sb = problem.B.conj().T @ Z
    out["sb_cache"] = float(np.linalg.norm(SB - sb) /
                            max(np.linalg.norm(sb), 1.0))
    kref = EZ @ (Z.conj().T @ problem.B)
    out["feedback"] = float(np.linalg.norm(state.K - kref) /
                            max(np.linalg.norm(kref), 1.0))
    return out


def closed_loop_pole_check(state, problem):
    """Defect of the closed-loop spectrum identity of the normalized state.

    Every negated conjugate recorded pole must be an eigenvalue of
    Hminus - (SB* SB + h* h). The identity is measured through scaled
    smallest singular values rather than an eigendecomposition, which for
    multiple eigenvalues of the non-normal closed-loop matrix would amplify
    roundoff far beyond the state's actual accuracy. That the eigenvalues of
    Hminus are the recorded poles is brad_residual_check's "poles" entry.
    """
    if state.q == 0:
        return 0.0
    SB, h = state.SB, state.h
    closed = state.Hminus - SB.conj().T @ SB - h.conj().T @ h
    scale = max(np.linalg.norm(closed, 2), 1.0)
    defect = 0.0
    eye = np.eye(state.q)
    for mu in {complex(mu) for mu in state.poles}:
        smin = np.linalg.svd(closed + np.conj(mu) * eye,
                             compute_uv=False)[-1]
        defect = max(defect, float(smin) / scale)
    return defect
