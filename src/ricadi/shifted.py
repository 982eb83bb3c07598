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

# Shifted matrices with n below this are factored by dense LU, others by SuperLU.
DENSE_LU_BELOW_N = 500


@dataclass
class ShiftedFactor:
    """Opaque factorization of (A* - mu E*); immutable after creation."""

    shift: complex
    n: int
    _solve: callable = field(repr=False)

    def solve(self, RHS):
        return self._solve(RHS)


def solve_by_parts(solve, RHS):
    """Apply a real factor's solve to RHS; a complex RHS goes by parts.

    A real SuperLU factor accepts only real right-hand sides, so a complex
    block is solved as its real and imaginary parts.
    """
    if np.iscomplexobj(RHS):
        return solve(RHS.real) + 1j * solve(RHS.imag)
    return solve(RHS)


def _check_diag(d, mu):
    if singular_pivots(d):
        raise SingularShiftError(
            f"shifted matrix A* - mu E* is singular for mu = {mu}", shift=mu
        )


# (A, E, pencil) for the pair last factored; see pencil().
_last_pencil = None


def pencil(A, E=None):
    """Return the pair (A*, E*) that factorize forms A* - mu E* from.

    E* is the identity when E is None. For n < DENSE_LU_BELOW_N both are
    dense arrays; otherwise both are CSC matrices on one sorted pattern (the
    union of theirs), so each shift costs one pass over their data. The pair
    is assembled once and kept for the (A, E) objects last seen, compared by
    identity, until drop_pencil(): a matrix changed in place while it is
    kept goes unnoticed. Call this on the thread that will drop the pencil,
    as expand_parallel does before it starts its pool. Callers on other
    threads with other matrices may each assemble one; each uses the
    pencil it looked up.
    """
    global _last_pencil
    memo = _last_pencil
    if memo is None or memo[0] is not A or memo[1] is not E:
        memo = _last_pencil = (A, E, _assemble_pencil(A, E))
    return memo[2]


def drop_pencil():
    """Forget the kept pencil; solve calls this when its iteration ends."""
    global _last_pencil
    _last_pencil = None


def _assemble_pencil(A, E):
    n = A.shape[0]
    Ah = A.conj().T  # a copy: the in-place edits below leave A alone
    Eh = sp.identity(n, format="csc") if E is None else E.conj().T
    if n < DENSE_LU_BELOW_N:
        return tuple(M.toarray() if sp.issparse(M) else np.asarray(M)
                     for M in (Ah, Eh))
    pair = [sp.csc_matrix(M) for M in (Ah, Eh)]
    for M in pair:
        M.eliminate_zeros()  # an entry zero in both is dropped from M anyway
        M.sum_duplicates()
    # |A*| + |E*| is zero nowhere on the union of the two patterns.
    union = abs(pair[0]) + abs(pair[1])

    def positions(M):
        return (np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr)) * n
                + M.indices)

    def on_union(M):
        if M.nnz == union.nnz:
            return M  # the same sorted pattern
        # values are copied, not added, so even the sign of a zero is kept
        data = np.zeros(union.nnz, M.dtype)
        data[np.searchsorted(positions(union), positions(M))] = M.data
        return sp.csc_matrix((data, union.indices, union.indptr), shape=(n, n))

    return tuple(on_union(M) for M in pair)


def factorize(A, E=None, mu=0.0):
    """Factor A* - mu E* (E* omitted when E is None).

    Dense LU for n < DENSE_LU_BELOW_N, SuperLU otherwise. SuperLU orders
    by minimum degree on the pattern of M* + M (MMD_AT_PLUS_A: about 40%
    less fill than COLAMD on 2-D stencils). The matrix is formed from
    pencil(A, E); it has the values and pattern that A.conj().T - mu *
    E.conj().T gives in scipy. Deterministic for fixed input.
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        mu = mu.real
    Ah, Eh = pencil(A, E)
    n = Ah.shape[0]
    if sp.issparse(Ah):
        data = Ah.data - mu * Eh.data
        M = sp.csc_matrix((data, Ah.indices, Ah.indptr), shape=Ah.shape)
        if not data.all():
            # scipy's sparse difference drops the entries that cancel; so
            # does this, on a copy that leaves the pencil's pattern intact
            M = M.copy()
            M.eliminate_zeros()
    else:
        M = Ah - mu * Eh
    dtype = np.complex128 if np.iscomplexobj(M) else np.float64
    if not sp.issparse(M):
        lu, piv = sla.lu_factor(M)
        _check_diag(np.diag(lu), mu)

        def solve(RHS, lu=lu, piv=piv):
            return sla.lu_solve((lu, piv), RHS)

    else:
        try:
            fac = spla.splu(M, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularShiftError(
                f"shifted matrix A* - mu E* is singular for mu = {mu}: {exc}",
                shift=mu,
            ) from exc
        _check_diag(fac.U.diagonal(), mu)

        def solve(RHS, fac=fac):
            if dtype == np.float64:
                return solve_by_parts(fac.solve, RHS)
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
