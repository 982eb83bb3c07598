"""Desk-scale ground truth: dense CARE solver and verification identities.

This module shares no kernels with the iterative solver beyond elementary
dense linear algebra, so it can serve as an independent oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .kernels import eigenvalue_match_distance

# Largest n the dense reference computations accept.
DENSE_ORACLE_MAX_N = 500


@dataclass
class DenseSolution:
    X: np.ndarray
    closed_loop_spectrum: np.ndarray


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def dense_care(problem):
    """Stabilizing solution of the (generalized) Riccati equation, dense.

    Solved via the ordered Schur/QZ decomposition of the associated
    Hamiltonian pencil. Requires (A, B) stabilizable and (C, A) detectable.
    """
    n = problem.n
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense solver limited to n <= {DENSE_ORACLE_MAX_N}")
    A = _dense(problem.A)
    B = np.asarray(problem.B)
    C = np.asarray(problem.C)
    E = None if problem.E is None else _dense(problem.E)
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
    A = _dense(problem.A)
    B = np.asarray(problem.B)
    C = np.asarray(problem.C)
    XE = X if problem.E is None else X @ _dense(problem.E)
    res = (A.conj().T @ XE + XE.conj().T @ A + C.conj().T @ C
           - XE.conj().T @ B @ (B.conj().T @ XE))
    return res, float(np.linalg.norm(res, 2))


def closed_loop_pole_check(state, problem):
    """Max defect of the two pole identities of the normalized state.

    Checks the multiset of eigenvalues of Hminus against the recorded poles,
    and that every negated conjugate pole is an eigenvalue of
    Hminus - (SB* SB + h* h) (the closed-loop spectrum identity). The latter
    is measured through scaled smallest singular values rather than an
    eigendecomposition, which for multiple eigenvalues of the non-normal
    closed-loop matrix would amplify roundoff far beyond the state's actual
    accuracy.
    """
    if state.q == 0:
        return 0.0
    Hm = state.Hminus
    poles = np.asarray(state.poles, dtype=complex)
    d1 = eigenvalue_match_distance(np.linalg.eigvals(Hm), poles)
    closed = Hm - state.SB.conj().T @ state.SB - state.h.conj().T @ state.h
    scale = max(np.linalg.norm(closed, 2), 1.0)
    d2 = 0.0
    eye = np.eye(state.q)
    for mu in {complex(mu) for mu in poles}:
        smin = np.linalg.svd(closed + np.conj(mu) * eye,
                             compute_uv=False)[-1]
        d2 = max(d2, float(smin) / scale)
    return float(max(d1, d2))
