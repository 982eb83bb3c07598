"""Small dense kernels used in every iteration step.

Cholesky factorization in the G*G convention (conjugate transpose first),
Gram-based spectral norms for tall skinny factors, and the small Sylvester
and Lyapunov equation solvers that update the low-rank state.
"""

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from .errors import NotPositiveDefiniteError, SylvesterSingularError

_PIVOT_TOL = 1e-13


def singular_pivots(d):
    """True when the smallest pivot magnitude in d is negligible."""
    d = np.abs(d)
    return bool(d.size and d.min() <= 1e-14 * max(d.max(), 1.0))


def hermitian_part(M):
    """Return (M + M*)/2; inputs are expected Hermitian up to roundoff."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def cholesky_upper(M):
    """Factor a Hermitian positive definite M as G*G with upper triangular G.

    The diagonal of G is real and positive. Raises NotPositiveDefiniteError
    on a nonpositive pivot, which upstream signals a shift-condition
    violation or near-deflation.
    """
    M = hermitian_part(np.atleast_2d(M))
    k = M.shape[0]
    dtype = np.result_type(M.dtype, np.float64)
    G = np.zeros((k, k), dtype=dtype)
    scale = max(float(np.max(np.abs(np.diag(M)))) if k else 0.0, 0.0)
    for i in range(k):
        d = M[i, i].real - np.vdot(G[:i, i], G[:i, i]).real
        if d <= _PIVOT_TOL * scale or d <= 0.0:
            raise NotPositiveDefiniteError(
                f"not positive definite: pivot {i} is {d:.3e}", pivot=i
            )
        gii = np.sqrt(d)
        G[i, i] = gii
        if i + 1 < k:
            G[i, i + 1:] = (M[i, i + 1:] - G[:i, i].conj() @ G[:i, i + 1:]) / gii
    return G


def spectral_norm_gram(R):
    """2-norm of RR* for a tall n-by-p factor R, via the p-by-p Gram matrix.

    Never forms the n-by-n product; returns the largest eigenvalue of R*R.
    """
    R = np.atleast_2d(np.asarray(R))
    if R.size == 0:
        return 0.0
    g = hermitian_part(R.conj().T @ R)
    w = np.linalg.eigvalsh(g)
    return float(max(w[-1], 0.0))


def _is_triangular(M):
    """Classify M as 'upper', 'lower' or None (within roundoff)."""
    if M.shape[0] != M.shape[1] or M.shape[0] < 2:
        return "upper"
    scale = np.max(np.abs(M)) or 1.0
    if np.max(np.abs(np.tril(M, -1))) <= 1e-14 * scale:
        return "upper"
    if np.max(np.abs(np.triu(M, 1))) <= 1e-14 * scale:
        return "lower"
    return None


def _solve_shifted(Hc, tri, tau, rhs):
    """Solve (Hc + tau*I) x = rhs, exploiting triangular Hc when present."""
    q = Hc.shape[0]
    M = Hc + tau * np.eye(q, dtype=np.result_type(Hc.dtype, type(tau)))
    if tri is not None:
        if singular_pivots(np.diag(M)):
            raise SylvesterSingularError(
                f"singular Sylvester operator: eigenvalue near {-tau}",
                eigenvalue=-tau,
            )
        return sla.solve_triangular(M, rhs, lower=(tri == "lower"))
    return _lu_solve_checked(M, rhs, -tau)


def _lu_solve_checked(M, rhs, eigenvalue=None):
    lu, piv = sla.lu_factor(M)
    if singular_pivots(np.diag(lu)):
        raise SylvesterSingularError(
            f"singular Sylvester operator: eigenvalue near {eigenvalue}",
            eigenvalue=eigenvalue,
        )
    return sla.lu_solve((lu, piv), rhs)


def solve_sylvester_small(Hc, D, RHS):
    """Solve Y D + Hc Y = RHS for the q-by-t matrix Y.

    Hc is typically the conjugate transpose of the running quasi-triangular
    coefficient, so a triangular back-substitution path is used when
    possible. Uses a Schur form of the small t-by-t matrix D only; no Schur
    factorization of Hc is computed. Real data stays real (real Schur of D
    with 2-by-2 bumps handled by a small Kronecker solve).
    """
    Hc = np.atleast_2d(np.asarray(Hc))
    D = np.atleast_2d(np.asarray(D))
    RHS = np.atleast_2d(np.asarray(RHS))
    q, t = Hc.shape[0], D.shape[0]
    real_path = not (
        np.iscomplexobj(Hc) or np.iscomplexobj(D) or np.iscomplexobj(RHS)
    )
    dtype = np.float64 if real_path else np.complex128
    if q == 0 or t == 0:
        return np.zeros((q, t), dtype=dtype)
    if t == 1:
        T = D.astype(dtype)
        Q = np.eye(1, dtype=dtype)
    else:
        T, Q = sla.schur(D.astype(dtype), output="real" if real_path else "complex")
    rhs = RHS.astype(dtype) @ Q
    Y = np.zeros((q, t), dtype=dtype)
    tri = _is_triangular(Hc)
    j = 0
    while j < t:
        blk = 2 if (real_path and j + 1 < t and T[j + 1, j] != 0.0) else 1
        b = rhs[:, j:j + blk] - Y[:, :j] @ T[:j, j:j + blk]
        if blk == 1:
            Y[:, j:j + 1] = _solve_shifted(Hc, tri, T[j, j], b)
        else:
            Tb = T[j:j + 2, j:j + 2]
            K = np.kron(np.eye(2), Hc) + np.kron(Tb.T, np.eye(q))
            ev = Tb[0, 0] + 1j * np.sqrt(abs(Tb[0, 1] * Tb[1, 0]))
            x = _lu_solve_checked(K, b.T.reshape(2 * q), -ev)
            Y[:, j:j + 2] = x.reshape(2, q).T
        j += blk
    return Y @ Q.conj().T


def solve_lyapunov_small(D, RHS):
    """Solve Y D + D* Y = RHS with Hermitian RHS; the result is Hermitian."""
    D = np.atleast_2d(np.asarray(D))
    Y = solve_sylvester_small(D.conj().T, D, hermitian_part(RHS))
    return hermitian_part(Y)


def eigenvalue_match_distance(a, b):
    """Largest pairing distance between two equally sized eigenvalue multisets."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
