"""Small dense kernels used in every iteration step.

Cholesky factorization in the G*G convention (conjugate transpose first),
Gram-based spectral norms for tall skinny factors, and the small Sylvester
and Lyapunov equation solvers that update the low-rank state.
"""

import numpy as np
import scipy.linalg as sla

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


def solve_sylvester_small(Hm, D, RHS):
    """Solve Hm* Y + Y D = RHS for the q-by-t matrix Y.

    Hm and D are upper quasi-triangular, as BradState keeps Hminus and an
    expansion block keeps D, so one LAPACK trsyl back-substitution solves
    the equation and real data stays real. ztrsyl reads only the upper
    triangle, so complex data with a 2-by-2 block raises ValueError; such a
    block is a realified pair, which only real data has.
    """
    Hm, D, RHS = (np.atleast_2d(np.asarray(M)) for M in (Hm, D, RHS))
    real = not any(np.iscomplexobj(M) for M in (Hm, D, RHS))
    dtype = np.float64 if real else np.complex128
    q, t = Hm.shape[0], D.shape[0]
    if q == 0 or t == 0:
        return np.zeros((q, t), dtype=dtype)
    if not real and (np.any(np.diag(Hm, -1)) or np.any(np.diag(D, -1))):
        raise ValueError("complex Sylvester data needs upper triangular Hm and D")
    Hm, D, RHS = Hm.astype(dtype), D.astype(dtype), RHS.astype(dtype)
    trsyl, = sla.get_lapack_funcs(("trsyl",), (Hm, D, RHS))
    Y, scale, info = trsyl(Hm, D, RHS, trana="T" if real else "C")
    if info != 0:
        raise SylvesterSingularError(
            f"singular Sylvester operator: trsyl info {info}")
    return Y / scale


def solve_lyapunov_small(D, RHS):
    """Solve D* Y + Y D = RHS for upper quasi-triangular D and Hermitian RHS.

    The result is Hermitian.
    """
    return hermitian_part(solve_sylvester_small(D, D, hermitian_part(RHS)))
