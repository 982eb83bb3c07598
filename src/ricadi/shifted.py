"""Factored solves with the large shifted matrices (A* - mu E*).

One factorization per shift serves any number of right-hand sides, and the
Sherman-Morrison-Woodbury formula turns the rank-m feedback correction
(A* - K B* - mu E*) into one sparse solve plus an m-by-m solve.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularShiftError, SMWSingularError
from .kernels import singular_pivots

DENSE_THRESHOLD = 500


@dataclass
class ShiftedFactor:
    """Opaque factorization of (A* - mu E*); immutable after creation."""

    shift: complex
    n: int
    _solve: callable = field(repr=False)

    def solve(self, RHS):
        return self._solve(RHS)


def _check_diag(d, mu):
    if singular_pivots(d):
        raise SingularShiftError(
            f"shifted matrix A* - mu E* is singular for mu = {mu}", shift=mu
        )


def factorize(A, E=None, mu=0.0):
    """Factor A* - mu E* (E* omitted when E is None).

    Sparse LU with fill-reducing ordering above the dense threshold, dense
    LU below it. Deterministic for fixed input.
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        mu = mu.real
    n = A.shape[0]
    Ah = A.conj().T if not sp.issparse(A) else A.conj().T.tocsc()
    if E is None:
        shift_mat = sp.identity(n, format="csc") if sp.issparse(A) else np.eye(n)
    else:
        Eh = E.conj().T
        shift_mat = Eh.tocsc() if sp.issparse(Eh) else Eh
    M = Ah - mu * shift_mat
    dtype = np.complex128 if np.iscomplexobj(M) else np.float64
    if n < DENSE_THRESHOLD:
        Md = M.toarray() if sp.issparse(M) else np.asarray(M)
        lu, piv = sla.lu_factor(Md)
        _check_diag(np.diag(lu), mu)

        def solve(RHS, lu=lu, piv=piv):
            return sla.lu_solve((lu, piv), RHS)

    else:
        Mc = sp.csc_matrix(M)
        try:
            fac = spla.splu(Mc)
        except RuntimeError as exc:
            raise SingularShiftError(
                f"shifted matrix A* - mu E* is singular for mu = {mu}: {exc}",
                shift=mu,
            ) from exc
        _check_diag(fac.U.diagonal(), mu)

        def solve(RHS, fac=fac):
            if dtype == np.float64 and np.iscomplexobj(RHS):
                # A real SuperLU factor accepts only real right-hand sides.
                return fac.solve(RHS.real) + 1j * fac.solve(RHS.imag)
            return fac.solve(RHS)

    def typed_solve(RHS, solve=solve, dtype=dtype, n=n):
        RHS = np.atleast_2d(np.asarray(RHS))
        if RHS.shape[0] != n:
            raise ValueError(f"RHS must have {n} rows, got {RHS.shape}")
        if RHS.shape[1] == 0:
            return np.zeros_like(RHS, dtype=np.result_type(RHS.dtype, dtype))
        return solve(RHS.astype(np.result_type(RHS.dtype, dtype), copy=False))

    return ShiftedFactor(shift=mu, n=n, _solve=typed_solve)


def solve_factored(f, RHS):
    """Solve (A* - mu E*) W = RHS for a previously computed factor."""
    return f.solve(RHS)


def smw_solve(f, K, B, RHS):
    """Solve (A* - K B* - mu E*) W = RHS via Sherman-Morrison-Woodbury."""
    K = np.atleast_2d(np.asarray(K))
    B = np.atleast_2d(np.asarray(B))
    RHS = np.atleast_2d(np.asarray(RHS))
    m = K.shape[1]
    if m == 0:
        return f.solve(RHS)
    k = RHS.shape[1]
    LN = f.solve(np.hstack([RHS, K]))
    L, N = LN[:, :k], LN[:, k:]
    cap = np.eye(m, dtype=LN.dtype) - B.conj().T @ N
    lu, piv = sla.lu_factor(cap)
    if singular_pivots(np.diag(lu)):
        raise SMWSingularError(
            f"SMW capacitance singular for mu = {f.shift}", shift=f.shift
        )
    return L + N @ sla.lu_solve((lu, piv), B.conj().T @ L)
