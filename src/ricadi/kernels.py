"""Small dense kernels used in every iteration step.

Cholesky factorization in the G*G convention (conjugate transpose first),
Gram-based spectral norms and orthonormal bases for tall skinny blocks, and
the small Sylvester and Lyapunov equation solvers that update the low-rank
state. The factorizations and the solvers are direct LAPACK calls (potrf,
geqrf and orgqr, trsyl), as are the other per-step solves: a dense shifted
factor's (getrs, shifted.Factor.solve) and the absorption's divisions by the
Gram's Cholesky factor (trtrs, brad._right_divide_upper). None goes through
scipy's validating wrappers; lapack_info turns the info those calls return
into an error.
"""

import numpy as np
import scipy.linalg as sla

from .errors import NotPositiveDefiniteError, SylvesterSingularError

_PIVOT_TOL = 1e-13


def singular_pivots(d):
    """True unless min |d| > 1e-14 max |d|: all-zero and NaN pivots are singular."""
    d = np.abs(d)
    return bool(d.size and not d.min() > 1e-14 * d.max())


def lapack_info(routine, info):
    """Raise for the nonzero info of a LAPACK call, as scipy's wrappers do.

    info < 0 (an illegal argument) raises ValueError, info > 0 (trtrs's zero
    on the diagonal) numpy.linalg.LinAlgError.
    """
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: {routine} found a zero at diagonal {info - 1}")


def hermitian_part(M):
    """Return (M + M*)/2; inputs are expected Hermitian up to roundoff."""
    return 0.5 * (M + M.conj().T)


def cholesky_upper(M):
    """Factor a Hermitian positive definite M as G*G with upper triangular G.

    One LAPACK potrf call; the diagonal of G is real and positive. Raises
    NotPositiveDefiniteError at the first pivot G[i, i]**2 that is not above
    both 0 and 1e-13 max |diag M|, which upstream signals a shift-condition
    violation or near-deflation; a NaN pivot fails, and a NaN on M's
    diagonal fails pivot 0. Pivots potrf accepted are checked before the one
    it rejected, so the reported index is the first that fails the rule.
    """
    M = hermitian_part(M)
    M = M.astype(np.result_type(M.dtype, np.float64), copy=False)
    potrf, = sla.get_lapack_funcs(("potrf",), (M,))
    G, info = potrf(M, lower=False, clean=True)
    k = info - 1 if info > 0 else M.shape[0]
    pivots = G.diagonal().real ** 2
    ok = pivots[:k] > _PIVOT_TOL * np.abs(M.diagonal()).max(initial=0.0)
    i = k if ok.all() else int(np.argmin(ok))
    if i < M.shape[0]:
        d = pivots[i] if i < k else G[i, i].real
        raise NotPositiveDefiniteError(
            f"not positive definite: pivot {i} is {d:.3e}", pivot=i)
    return G


def orthonormal_basis(M):
    """Q of the thin QR factorization of an n-by-k block M: min(n, k) columns.

    One LAPACK geqrf call, then orgqr (ungqr on complex data), each with the
    workspace LAPACK asks for: the calls numpy.linalg.qr makes, without its
    copies or R.
    """
    M = np.asarray(M)
    M = M.astype(np.result_type(M.dtype, np.float64), copy=False)
    geqrf, orgqr = sla.get_lapack_funcs(
        ("geqrf", "ungqr" if np.iscomplexobj(M) else "orgqr"), (M,))
    k = min(M.shape)
    qr, tau, _, _ = geqrf(M, lwork=int(geqrf(M, lwork=-1)[2][0].real))
    lwork = int(orgqr(qr[:, :k], tau, lwork=-1)[1][0].real)
    return orgqr(qr[:, :k], tau, lwork=lwork, overwrite_a=True)[0]


def spectral_norm_gram(R):
    """2-norm of RR* for a tall n-by-p factor R, via the p-by-p Gram matrix.

    Never forms the n-by-n product; returns the largest eigenvalue of R*R.
    """
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
    real = not any(np.iscomplexobj(M) for M in (Hm, D, RHS))
    dtype = np.float64 if real else np.complex128
    q, t = Hm.shape[0], D.shape[0]
    if q == 0 or t == 0:
        return np.zeros((q, t), dtype=dtype)
    if not real and (np.any(np.diag(Hm, -1)) or np.any(np.diag(D, -1))):
        raise ValueError("complex Sylvester data needs upper triangular Hm and D")
    # trsyl's wrapper copies RHS, and never writes Hm or D
    Hm, D, RHS = (M.astype(dtype, copy=False) for M in (Hm, D, RHS))
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
