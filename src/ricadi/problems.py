"""Problem data and file I/O: Matrix Market matrices, shift lists, CSV logs."""

import csv
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import MatrixMarketError
from .shifts import admissible_shift


def _entries(M):
    return M.data if sp.issparse(M) else np.asarray(M)


def _dense_2d(M):
    return np.atleast_2d(M.toarray() if sp.issparse(M) else np.asarray(M))


@dataclass
class ProblemSpec:
    """The quadruple (A, B, C, E) of a (generalized) Riccati equation.

    A is n-by-n, B is n-by-m (a vector: one column), C is p-by-n (a vector:
    one row) and E is an optional regular n-by-n matrix (identity when
    absent); m = 0 encodes the Lyapunov special case B = 0. Each may be
    given dense or sparse, and its format is fixed here: A and E are stored
    as CSR (a CSR input's arrays are shared, not copied), B and C as dense
    2-D arrays. So a problem built here and one read by load_problem run the
    same arithmetic. Each is stored in double precision (lower precision is
    copied up), and a complex one whose imaginary parts are all zero as its
    real part, so real data is real-typed. More than 2 dimensions is an error.
    """

    A: object
    B: object
    C: object
    E: object = None

    def __post_init__(self):
        for name in ("A", "B", "C", "E"):
            if np.ndim(getattr(self, name)) > 2:
                raise ValueError(f"{name} must have at most 2 dimensions")
        self.A = sp.csr_matrix(self.A)
        self.E = None if self.E is None else sp.csr_matrix(self.E)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got {self.A.shape}")
        n = self.A.shape[0]
        if n < 1:
            raise ValueError("n must be at least 1")
        given = np.shape(self.B)
        self.B = np.zeros((n, 0)) if self.B is None else _dense_2d(self.B)
        if len(given) == 1:
            self.B = self.B.T
        self.C = _dense_2d(self.C)
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {given}")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {self.C.shape}")
        if self.C.shape[0] < 1:
            raise ValueError("C must have at least one row")
        if self.E is not None and self.E.shape != (n, n):
            raise ValueError(f"E must be {n}x{n}, got {self.E.shape}")
        for name in ("A", "B", "C", "E"):
            M = getattr(self, name)
            if M is not None:
                M = M.astype(np.result_type(M.dtype, np.float64), copy=False)
                if not np.all(np.isfinite(_entries(M))):
                    raise ValueError(f"{name} has a non-finite entry")
                if np.iscomplexobj(M) and not np.any(_entries(M).imag):
                    M = M.real.copy()
                setattr(self, name, M)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def is_real(self):
        return not any(np.iscomplexobj(M) for M in (self.A, self.B, self.C, self.E))


def read_matrix_market(path):
    """Read a Matrix Market file; dense for array files, sparse for coordinate.

    Symmetric/Hermitian/skew storage is expanded to the full matrix and
    integer data is promoted to float.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    try:
        M = scipy.io.mmread(path)
    except (ValueError, TypeError, OSError) as exc:
        raise MatrixMarketError(f"{path}: {exc}") from exc
    M = M.tocsr() if sp.issparse(M) else np.asarray(M)
    if np.issubdtype(M.dtype, np.integer):
        M = M.astype(np.float64)
    return M


def write_matrix_market(M, path):
    """Write a matrix (dense or sparse) as a Matrix Market file at path."""
    # scipy's mmwrite of a path fails silently and may append ".mtx" to it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, M)


def read_shift_file(path):
    """Read "re im" lines ('#' starts a comment) as a list of complex shifts."""
    shifts = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 're im', got {raw.rstrip()!r}"
                )
            try:
                shifts.append(admissible_shift(
                    complex(float(parts[0]), float(parts[1]))))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return shifts


LOG_HEADER = ["iter", "subspace_dim", "rel_residual",
              "expansion_s", "absorb_s", "total_s", "shift_s"]


def write_convergence_log(records, path):
    """Write each record's LOG_HEADER fields as CSV, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for r in records:
            writer.writerow([f"{getattr(r, name):.17g}" for name in LOG_HEADER])


def load_problem(a_path, c_path, b_path=None, e_path=None):
    """Assemble a ProblemSpec from Matrix Market files (B = 0, E = I when omitted)."""
    return ProblemSpec(
        A=read_matrix_market(a_path),
        C=read_matrix_market(c_path),
        B=None if b_path is None else read_matrix_market(b_path),
        E=None if e_path is None else read_matrix_market(e_path))
