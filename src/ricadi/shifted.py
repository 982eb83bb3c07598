"""Factored solves with the large shifted matrices (A* - mu E*).

Every LU factorization is a Factor, whose constructor holds the one
dense/sparse rule, SuperLU's settings and the one pivot check: factorize
makes one per shift, from the A* and E* that a ShiftedSystem holds for one
solve, shifts.factor_e the one of E that it holds too, and smw_solve one of
its m-by-m capacitance. From DENSE_LU_BELOW_N on, the system orders the one
pattern that every shifted matrix has once, by SuperLU's minimum degree on
the pattern of M* + M, and holds A* and E* symmetrically permuted into that
order; each shifted factor is then SuperLU's NATURAL-order LU of the held
matrix, and its Factor permutes a block's rows on the way in and back on the
way out. A factor serves any number of right-hand sides, and the
Sherman-Morrison-Woodbury formula turns the rank-m feedback correction
(A* - K B* - mu E*) into one solve with the factor plus an m-by-m solve.
"""

from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularShiftError, SMWSingularError
from .kernels import lapack_info, singular_pivots

# Shifted matrices with n below this are factored by dense LU, others by SuperLU.
DENSE_LU_BELOW_N = 500

# SuperLU's supernode relaxation and panel width for every sparse factor
# (scipy's defaults are 10 and 20). relax = 1 relaxes no supernode, so no
# stored entry is zero padding: the 3-D Laplacian 10^3 stores 67,282 entries
# instead of 170,216. Four-column panels need less fresh workspace: a cd2d
# factor touches about 710 new pages instead of 1,140. Together they take
# about 20% off each cd2d and fem1d factor (README, "Factorizations").
# Keep 1 <= relax <= panel_size <= 20: panel_size 24 and 32 aborted or
# segfaulted on the cd2d operator, in one run only after the factor had
# returned (heap corruption, not an error a caller could catch).
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 4


class Factor:
    """One LU factorization of an n-by-n matrix M, applied to any number of blocks.

    The rule is by size alone: dense LU when n < DENSE_LU_BELOW_N, else
    splu(M in CSC) with SUPERLU_RELAX and SUPERLU_PANEL_SIZE. Dense LU works
    in place, so a dense M must be an array made for this factor (a sparse M
    is copied to a Fortran-ordered array).
    A singular or non-finite M raises error(message), the message being
    singular, followed by LAPACK's wrapper's or SuperLU's reason if either
    failed. lu is a dense (lu, piv) pair from dense_lu or a SuperLU object,
    and shift the mu of M = A* - mu E* (None for E's factor). perm and
    iperm are a ShiftedSystem's, or None: when given, M is the matrix solve
    solves with, symmetrically permuted (its row and column j are row and
    column perm[j]), and solve takes a block's rows in by perm and the
    solution's rows back by iperm, the inverse permutation.
    """

    def __init__(self, M, splu, singular, error, shift=None, perm=None,
                 iperm=None):
        n = M.shape[0]
        try:  # LAPACK's wrapper rejects a non-finite M, SuperLU a singular one
            if n < DENSE_LU_BELOW_N:
                lu = dense_lu(M.toarray(order="F") if sp.issparse(M) else M)
            else:
                lu = splu(sp.csc_matrix(M), relax=SUPERLU_RELAX,
                          panel_size=SUPERLU_PANEL_SIZE)
        except (ValueError, RuntimeError) as exc:
            raise error(f"{singular}: {exc}") from exc
        pivots = np.diag(lu[0]) if isinstance(lu, tuple) else lu.U.diagonal()
        if singular_pivots(pivots):
            raise error(singular)
        self.lu, self.n, self.shift = lu, n, shift
        self.perm, self.iperm = perm, iperm
        self.dtype = np.result_type(M.dtype, np.float64)

    def solve(self, RHS):
        """Return W with M W = RHS (2-D, n rows), in RHS's dtype promoted with M's.

        A dense factor solves by one LAPACK getrs call, the one
        sla.lu_solve makes (zgetrs for a complex RHS on a real factor), so W
        is bitwise lu_solve's, without its scan of RHS for non-finite
        entries: both branches solve a block with a NaN or an infinity, and
        a column holding one gives a non-finite solution column. M was
        checked when it was factored, and a problem's data when its
        ProblemSpec was made.
        """
        if RHS.ndim != 2 or RHS.shape[0] != self.n:
            raise ValueError(f"RHS must be 2-D, {self.n} rows, got {RHS.shape}")
        RHS = RHS.astype(np.result_type(RHS.dtype, self.dtype), copy=False)
        if RHS.size == 0:
            return RHS
        if isinstance(self.lu, tuple):
            lu, piv = self.lu
            getrs, = sla.get_lapack_funcs(("getrs",), (lu, RHS))
            W, info = getrs(lu, piv, RHS)
            lapack_info("getrs", info)
            return W
        if self.perm is not None:
            RHS = _rows(RHS, self.perm)
        if RHS.dtype != self.dtype:  # a real SuperLU factor takes only real RHS
            W = self.lu.solve(RHS.real) + 1j * self.lu.solve(RHS.imag)
        else:
            W = self.lu.solve(RHS)
        return W if self.iperm is None else _rows(W, self.iperm)


def _rows(M, index):
    """np.take(M, index, axis=0), in M's own memory order.

    A Fortran-ordered M is gathered along its contiguous columns: on a
    6400-by-6 block that takes a sixth of np.take's time along axis 0 and a
    third of fancy indexing's.
    """
    if M.flags.f_contiguous:
        return np.take(M.T, index, axis=1).T
    return np.take(M, index, axis=0)


class ShiftedSystem:
    """A* and E* of one pencil, assembled once for every shift of a solve.

    Below DENSE_LU_BELOW_N they are held as dense Fortran-ordered arrays,
    Eh being None when E is None, and perm and iperm are None.

    From there on the system holds the one pattern that every A* - mu E*
    has, pattern(A*) | pattern(E*), the diagonal standing in for E* when E
    is None. It takes SuperLU's MMD_AT_PLUS_A ordering of that pattern once
    and holds the pattern symmetrically permuted into it, in CSC: row and
    column j of the held pattern are row and column perm[j] of A* - mu E*,
    and iperm (SuperLU's perm_c) is the inverse permutation. Ah and Eh are
    A*'s and E*'s (or the identity's) values on it, aligned, with an
    explicit zero where a matrix has no entry, so the pattern cannot change
    with mu.

    e_factor, E's Factor (shifts.factor_e), is None when E is None. The
    system only reads what it holds, so the threads of a parallel expansion
    may share one; what is formed from it is the caller's.
    """

    def __init__(self, A, E=None, e_factor=None):
        n = A.shape[0]
        # For real CSR input the CSC conjugate transposes are views: A's and
        # E's entries are copied only into what the system holds.
        Ah = sp.csr_matrix(A).conj(copy=False).T
        Eh = None if E is None else sp.csr_matrix(E).conj(copy=False).T
        self.n, self.e_factor, self.perm, self.iperm = n, e_factor, None, None
        if n < DENSE_LU_BELOW_N:
            # Fortran order lets LAPACK factor each shifted matrix in place
            self.Ah = Ah.toarray(order="F")
            self.Eh = None if Eh is None else Eh.toarray(order="F")
            return
        if Eh is None:
            Eh = sp.identity(n, format="csc")
        Ah, Eh = _canonical(Ah), _canonical(Eh)
        pattern = _unit(Ah) + _unit(Eh)
        # perm_c[i] is the position of row and column i in SuperLU's order;
        # the held pattern is permuted by its inverse, perm. Permuting by
        # perm_c itself stores 3.1M entries of L+U on cd2d instead of 221k.
        perm_c = _minimum_degree_order(pattern)
        rows, cols = _coordinates(pattern)
        # held entry k is entry number held.data[k] of pattern
        held = sp.csc_matrix((np.arange(pattern.nnz), (perm_c[rows], perm_c[cols])),
                             shape=(n, n))
        # placed, not summed with a zero: x + 0.0 would turn -0.0 into +0.0
        keys = _keys(pattern)
        self.Ah, self.Eh = (_placed(M, keys)[held.data] for M in (Ah, Eh))
        self.pattern = held.indices, held.indptr
        self.perm, self.iperm = np.argsort(perm_c), perm_c

    def matrix(self, mu):
        """Return a new A* - mu E*.

        From DENSE_LU_BELOW_N on, a CSC matrix on the held pattern (so
        symmetrically permuted by perm) whose entries are bitwise those
        scipy's csc(A*) - mu * csc(E*) gives, and exact zeros at the rest
        of the pattern. Below, dense and Fortran-ordered like the held
        arrays: the entries that difference gives once made dense.
        """
        if self.perm is not None:
            return sp.csc_matrix((self.Ah - mu * self.Eh, *self.pattern),
                                 shape=(self.n, self.n))
        if self.Eh is None:
            M = self.Ah.astype(np.result_type(self.Ah, mu), order="F")
            M[np.diag_indices(self.n)] -= mu
            return M
        M = np.empty_like(self.Ah, dtype=np.result_type(self.Ah, self.Eh, mu),
                          order="F")
        np.multiply(self.Eh, mu, out=M)
        return np.subtract(self.Ah, M, out=M)


def _canonical(M):
    """M in CSC with sorted indices and no duplicates (summed, in a copy)."""
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def _unit(M):
    """M's pattern, every stored entry (an explicit zero too) a one, in CSC."""
    return sp.csc_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)


def _coordinates(M):
    """The rows and columns of a CSC matrix's stored entries."""
    return M.indices, np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))


def _keys(M):
    """Column-major positions of a canonical CSC matrix's entries, ascending."""
    rows, cols = _coordinates(M)
    return cols * M.shape[0] + rows.astype(np.int64)


def _placed(M, keys):
    """M's entries at the positions of keys, a superset of its own; 0 elsewhere."""
    if M.nnz == len(keys):  # the same positions: A* on cd2d, A* and E* on fem1d
        return M.data
    values = np.zeros(len(keys), dtype=M.dtype)
    values[np.searchsorted(keys, _keys(M))] = M.data
    return values


def _minimum_degree_order(pattern):
    """SuperLU's MMD_AT_PLUS_A column order, perm_c, of a matrix with this pattern.

    The order depends on the pattern alone, so it is taken from a stand-in
    that is nonsingular by construction: -1 at every entry, and a diagonal
    that dominates its row and its column. A NaN or a shift in the
    pencil's spectrum therefore fails in the shift's own factorization.
    SuperLU's incomplete LU takes the same order as its LU, in a third of
    the time on cd2d: it keeps no more entries than the stand-in has.
    """
    degree = np.maximum(np.diff(pattern.indptr),
                        np.bincount(pattern.indices, minlength=pattern.shape[0]))
    # + 2: one for dominance, one for the -1 a stored diagonal entry has
    stand_in = -_unit(pattern) + sp.diags(degree + 2.0)
    return spla.spilu(stand_in, permc_spec="MMD_AT_PLUS_A", drop_tol=0.99,
                      fill_factor=1, relax=SUPERLU_RELAX,
                      panel_size=SUPERLU_PANEL_SIZE).perm_c


def factorize(A, E=None, mu=0.0, system=None):
    """Factor A* - mu E* (E* omitted when E is None).

    system is the ShiftedSystem of (A, E) that forms the matrix; without one
    a system is built for this call alone. Below DENSE_LU_BELOW_N the matrix
    is A.conj().T - mu * E.conj().T as scipy forms it, made dense, and dense
    LU factors it in place. From there on it is that matrix on the system's
    fixed pattern, permuted into the one order the system took (SuperLU's
    minimum degree on the pattern of M* + M, MMD_AT_PLUS_A: about 40% less
    fill than COLAMD on 2-D stencils), and SuperLU factors it in NATURAL
    order, so no factor orders anything; with supernodes relaxed by
    SUPERLU_RELAX and panels of SUPERLU_PANEL_SIZE columns (no zero
    padding, less fresh workspace: about 20% off each factor on cd2d and
    fem1d). The factor solves in the caller's order. Deterministic for
    fixed input. Returns a Factor; raises SingularShiftError when a pivot
    is negligible.
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        mu = mu.real
    if system is None:
        system = ShiftedSystem(A, E)
    return Factor(system.matrix(mu),
                  partial(spla.splu, permc_spec="NATURAL"),
                  f"shifted matrix A* - mu E* is singular for mu = {mu}",
                  lambda msg: SingularShiftError(msg, shift=mu), shift=mu,
                  perm=system.perm, iperm=system.iperm)


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
