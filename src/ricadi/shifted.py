"""Factored solves with the large shifted matrices (A* - mu E*).

Every LU factorization is a Factor, whose constructor holds the one
dense/sparse rule and the one pivot check: factorize makes one per shift,
from the A* and E* that a ShiftedSystem holds for one solve,
shifts.factor_e the one of E that it holds too, and smw_solve one of its
m-by-m capacitance. A factor serves any number of right-hand sides, and the
Sherman-Morrison-Woodbury formula turns the rank-m feedback correction
(A* - K B* - mu E*) into one solve with the factor plus an m-by-m solve.
"""

from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularShiftError, SMWSingularError
from .kernels import singular_pivots

# Shifted matrices with n below this are factored by dense LU, others by SuperLU.
DENSE_LU_BELOW_N = 500


class Factor:
    """One LU factorization of an n-by-n matrix M, applied to any number of blocks.

    The rule is by size alone: dense LU when n < DENSE_LU_BELOW_N, else
    splu(M in CSC). Dense LU works in place, so a dense M must be an array
    made for this factor (a sparse M is copied to a Fortran-ordered array).
    A singular or non-finite M raises error(message), the message being
    singular, followed by LAPACK's wrapper's or SuperLU's reason if either
    failed. lu is a dense (lu, piv) pair from dense_lu or a SuperLU object,
    and shift the mu of M = A* - mu E* (None for E's factor).
    """

    def __init__(self, M, splu, singular, error, shift=None):
        n = M.shape[0]
        try:  # LAPACK's wrapper rejects a non-finite M, SuperLU a singular one
            if n < DENSE_LU_BELOW_N:
                lu = dense_lu(M.toarray(order="F") if sp.issparse(M) else M)
            else:
                lu = splu(sp.csc_matrix(M))
        except (ValueError, RuntimeError) as exc:
            raise error(f"{singular}: {exc}") from exc
        pivots = np.diag(lu[0]) if isinstance(lu, tuple) else lu.U.diagonal()
        if singular_pivots(pivots):
            raise error(singular)
        self.lu, self.n, self.shift = lu, n, shift
        self.dtype = np.result_type(M.dtype, np.float64)

    def solve(self, RHS):
        """Return W with M W = RHS (2-D, n rows), in RHS's dtype promoted with M's."""
        if RHS.ndim != 2 or RHS.shape[0] != self.n:
            raise ValueError(f"RHS must be 2-D, {self.n} rows, got {RHS.shape}")
        RHS = RHS.astype(np.result_type(RHS.dtype, self.dtype), copy=False)
        if RHS.shape[1] == 0:
            return RHS
        if isinstance(self.lu, tuple):
            return sla.lu_solve(self.lu, RHS)
        if RHS.dtype != self.dtype:  # a real SuperLU factor takes only real RHS
            return self.lu.solve(RHS.real) + 1j * self.lu.solve(RHS.imag)
        return self.lu.solve(RHS)


class ShiftedSystem:
    """A* and E* of one pencil, assembled once for every shift of a solve.

    Below DENSE_LU_BELOW_N they are held as dense Fortran-ordered arrays,
    from there on in CSC; E* and e_factor, E's Factor (shifts.factor_e), are
    None when E is None. The system only reads them, so the threads of a
    parallel expansion may share one; what is formed from it is the caller's.
    """

    def __init__(self, A, E=None, e_factor=None):
        n = A.shape[0]
        # For real CSR input the CSC conjugate transposes are views: a copy
        # held for the whole solve moved the heap's layout, and with it peak
        # RSS and the benchmark's host-speed reference, on cd2d (CHANGES.md).
        Ah = sp.csr_matrix(A).conj(copy=False).T
        Eh = None if E is None else sp.csr_matrix(E).conj(copy=False).T
        if n < DENSE_LU_BELOW_N:
            # Fortran order lets LAPACK factor each shifted matrix in place
            Ah = Ah.toarray(order="F")
            Eh = None if Eh is None else Eh.toarray(order="F")
        self.Ah, self.Eh, self.n, self.e_factor = Ah, Eh, n, e_factor

    def matrix(self, mu):
        """Return a new A* - mu E*, bitwise as scipy forms it in CSC.

        Dense, and Fortran-ordered like the held arrays, below
        DENSE_LU_BELOW_N: the entries that csc(A*) - mu * csc(E*) gives once
        made dense.
        """
        if sp.issparse(self.Ah):
            Eh = sp.identity(self.n, format="csc") if self.Eh is None else self.Eh
            return self.Ah - mu * Eh
        if self.Eh is None:
            M = self.Ah.astype(np.result_type(self.Ah, mu), order="F")
            M[np.diag_indices(self.n)] -= mu
            return M
        M = np.empty_like(self.Ah, dtype=np.result_type(self.Ah, self.Eh, mu),
                          order="F")
        np.multiply(self.Eh, mu, out=M)
        return np.subtract(self.Ah, M, out=M)


def factorize(A, E=None, mu=0.0, system=None):
    """Factor A* - mu E* (E* omitted when E is None).

    system is the ShiftedSystem of (A, E) that forms the matrix; without one
    a system is built for this call alone. The matrix is A.conj().T -
    mu * E.conj().T as scipy forms it in CSC, dense for n < DENSE_LU_BELOW_N.
    Dense LU factors it there, in place, SuperLU otherwise; SuperLU orders by
    minimum degree on the pattern of M* + M (MMD_AT_PLUS_A: about 40% less
    fill than COLAMD on 2-D stencils). Deterministic for fixed input. Returns
    a Factor; raises SingularShiftError when a pivot is negligible.
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        mu = mu.real
    if system is None:
        system = ShiftedSystem(A, E)
    return Factor(system.matrix(mu),
                  partial(spla.splu, permc_spec="MMD_AT_PLUS_A"),
                  f"shifted matrix A* - mu E* is singular for mu = {mu}",
                  lambda msg: SingularShiftError(msg, shift=mu), shift=mu)


def dense_lu(M):
    """sla.lu_factor(M, overwrite_a=True), silent at a zero pivot (callers check)."""
    getrf, = sla.get_lapack_funcs(("getrf",), (M,))
    return getrf(np.asarray_chkfinite(M), overwrite_a=True)[:2]


def solve_factored(f, RHS):
    """Solve (A* - mu E*) W = RHS for a previously computed factor."""
    return f.solve(RHS)


def smw_solve(f, K, B, RHS):
    """Solve (A* - K B* - mu E*) W = RHS via Sherman-Morrison-Woodbury.

    The m-by-m capacitance I - B* N, N = (A* - mu E*)^-1 K, is a Factor
    under the same size rule, so an m >= DENSE_LU_BELOW_N would go to
    SuperLU; no test or workload has m > 2. A singular capacitance raises
    SMWSingularError carrying f's shift. K, B and RHS are 2-D arrays.
    """
    m = K.shape[1]
    if m == 0:
        return f.solve(RHS)
    k = RHS.shape[1]
    LN = f.solve(np.hstack([RHS, K]))
    L, N = LN[:, :k], LN[:, k:]
    cap = Factor(np.eye(m, dtype=LN.dtype) - B.conj().T @ N, spla.splu,
                 f"SMW capacitance singular for mu = {f.shift}",
                 lambda msg: SMWSingularError(msg, shift=f.shift), shift=f.shift)
    return L + N @ cap.solve(B.conj().T @ L)
