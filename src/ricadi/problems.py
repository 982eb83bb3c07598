"""Problem data and file I/O: Matrix Market matrices, shift lists, CSV logs."""

import csv
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import MatrixMarketError
from .shifts import admissible_shift


def _entries_real(M):
    if M is None:
        return True
    if sp.issparse(M):
        data = M.data
    else:
        data = np.asarray(M)
    if not np.iscomplexobj(data):
        return True
    return bool(np.all(data.imag == 0))


@dataclass
class ProblemSpec:
    """The quadruple (A, B, C, E) of a (generalized) Riccati equation.

    A is n-by-n (sparse or dense), B is n-by-m dense, C is p-by-n dense and
    E is an optional regular n-by-n matrix (identity when absent). m = 0
    encodes the Lyapunov special case B = 0.
    """

    A: object
    B: object
    C: object
    E: object = None

    def __post_init__(self):
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got {self.A.shape}")
        n = self.A.shape[0]
        if n < 1:
            raise ValueError("n must be at least 1")
        if self.B is None:
            self.B = np.zeros((n, 0))
        self.B = np.atleast_2d(np.asarray(self.B))
        self.C = np.atleast_2d(np.asarray(self.C))
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {self.C.shape}")
        if self.C.shape[0] < 1:
            raise ValueError("C must have at least one row")
        if self.E is not None and self.E.shape != (n, n):
            raise ValueError(f"E must be {n}x{n}, got {self.E.shape}")

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
        return (
            _entries_real(self.A)
            and _entries_real(self.B)
            and _entries_real(self.C)
            and _entries_real(self.E)
        )


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
    if sp.issparse(M):
        M = M.tocsr()
        if np.issubdtype(M.dtype, np.integer):
            M = M.astype(np.float64)
        return M
    M = np.asarray(M)
    if np.issubdtype(M.dtype, np.integer):
        M = M.astype(np.float64)
    return M


def write_matrix_market(M, path, comment=""):
    """Write a matrix (dense or sparse) as a Matrix Market file."""
    scipy.io.mmwrite(path, np.asarray(M) if not sp.issparse(M) else M,
                     comment=comment)


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


def write_shift_file(shifts, path):
    with open(path, "w") as fh:
        for s in shifts:
            s = complex(s)
            fh.write(f"{s.real:.17g} {s.imag:.17g}\n")


LOG_HEADER = ["iter", "subspace_dim", "rel_residual",
              "expansion_s", "absorb_s", "total_s"]


def write_convergence_log(records, path):
    """Write per-step convergence records as CSV with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for r in records:
            writer.writerow([
                r.iter,
                r.subspace_dim,
                f"{r.rel_residual:.17g}",
                f"{r.expansion_s:.17g}",
                f"{r.absorb_s:.17g}",
                f"{r.total_s:.17g}",
            ])


def read_convergence_log(path):
    from .solver import ConvergenceRecord

    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != LOG_HEADER:
            raise ValueError(f"{path}: unexpected log header {header}")
        for row in reader:
            records.append(ConvergenceRecord(
                iter=int(row[0]),
                subspace_dim=int(row[1]),
                rel_residual=float(row[2]),
                expansion_s=float(row[3]),
                absorb_s=float(row[4]),
                total_s=float(row[5]),
            ))
    return records


def load_problem(a_path, c_path, b_path=None, e_path=None):
    """Assemble a ProblemSpec from Matrix Market files; B and C are densified."""
    A = read_matrix_market(a_path)
    if not sp.issparse(A):
        A = sp.csr_matrix(A)
    C = read_matrix_market(c_path)
    if sp.issparse(C):
        C = C.toarray()
    B = None
    if b_path is not None:
        B = read_matrix_market(b_path)
        if sp.issparse(B):
            B = B.toarray()
    E = None
    if e_path is not None:
        E = read_matrix_market(e_path)
        if not sp.issparse(E):
            E = sp.csr_matrix(E)
    return ProblemSpec(A=A, B=B, C=C, E=E)
