"""Test-side verification: BRAD state identities and the convergence log reader.

The checks re-derive each identity of the low-rank RADI state (Benner,
Bujanović, Kürschner and Saak, Numer. Math. 2018) from the problem and the
state's fields, and the reader parses the CSV log by its documented columns.
This module imports no ricadi module, so nothing it checks is checked with
the solver's own code; it reads a state and a problem by their attributes.
"""

import csv
from collections import namedtuple

import numpy as np
import scipy.sparse as sp

# The convergence log's columns, as write_convergence_log writes them.
# shift_s came last, so a log written before it has the first six columns.
LOG_HEADER = ["iter", "subspace_dim", "rel_residual",
              "expansion_s", "absorb_s", "total_s", "shift_s"]

# One row of a convergence log, read back.
LogRecord = namedtuple("LogRecord", LOG_HEADER)


def eigenvalue_match_distance(a, b):
    """Largest pairing distance between two equally sized eigenvalue multisets."""
    # imported here: scipy.optimize is costly to import and solve never needs it
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        return np.inf
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def brad_residual_check(state, problem):
    """Defect norms of the BRAD state invariants, each scaled per its tolerance.

    Every identity is evaluated from the problem and the state's fields, not
    through the solver's own kernels.
    """
    A, E = problem.A, problem.E
    Cstar = problem.C.conj().T
    Z, h, Hm, SB = state.Z, state.h, state.Hminus, state.SB
    if state.q == 0:
        return {"brad_identity": 0.0, "lyap_identity": 0.0,
                "residual_factor": 0.0, "poles": 0.0,
                "sb_cache": 0.0, "feedback": 0.0}
    out = {}
    EZ = Z if E is None else E.conj().T @ Z
    # A* Z = C* h + E* Z Hminus, the decomposition identity in the
    # E-transformed variables without forming inv(E).
    defect = A.conj().T @ Z - Cstar @ h - EZ @ Hm
    a_norm = sp.linalg.norm(A, 1)
    z_norm = np.linalg.norm(Z)
    scale = a_norm * z_norm + z_norm * np.linalg.norm(Hm) + 1e-300
    out["brad_identity"] = float(np.linalg.norm(defect) / scale)

    # Hm + Hm* = SB* SB + h* h: while it holds, R R* is the residual of Z Z*
    lyap = Hm + Hm.conj().T - (SB.conj().T @ SB + h.conj().T @ h)
    out["lyap_identity"] = float(np.linalg.norm(lyap)
                                 / max(np.linalg.norm(Hm), 1e-300))

    rref = Cstar + EZ @ h.conj().T
    r_scale = max(np.linalg.norm(rref), np.linalg.norm(Cstar), 1e-300)
    out["residual_factor"] = float(np.linalg.norm(state.R - rref) / r_scale)

    out["poles"] = eigenvalue_match_distance(np.linalg.eigvals(Hm), state.poles)

    sb = problem.B.conj().T @ Z
    out["sb_cache"] = float(np.linalg.norm(SB - sb) /
                            max(np.linalg.norm(sb), 1.0))
    kref = EZ @ (Z.conj().T @ problem.B)
    out["feedback"] = float(np.linalg.norm(state.K - kref) /
                            max(np.linalg.norm(kref), 1.0))
    return out


def closed_loop_pole_check(state, problem):
    """Defect of the closed-loop spectrum identity of the normalized state.

    Every negated conjugate recorded pole must be an eigenvalue of
    Hminus - (SB* SB + h* h). The identity is measured through scaled
    smallest singular values rather than an eigendecomposition, which for
    multiple eigenvalues of the non-normal closed-loop matrix would amplify
    roundoff far beyond the state's actual accuracy. That the eigenvalues of
    Hminus are the recorded poles is brad_residual_check's "poles" entry.
    """
    if state.q == 0:
        return 0.0
    SB, h = state.SB, state.h
    closed = state.Hminus - SB.conj().T @ SB - h.conj().T @ h
    scale = max(np.linalg.norm(closed, 2), 1.0)
    defect = 0.0
    eye = np.eye(state.q)
    for mu in {complex(mu) for mu in state.poles}:
        smin = np.linalg.svd(closed + np.conj(mu) * eye,
                             compute_uv=False)[-1]
        defect = max(defect, float(smin) / scale)
    return defect


def read_convergence_log(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header not in (LOG_HEADER, LOG_HEADER[:6]):
            raise ValueError(f"{path}: unexpected log header {header}")
        for row in reader:
            records.append(LogRecord(
                iter=int(row[0]),
                subspace_dim=int(row[1]),
                rel_residual=float(row[2]),
                expansion_s=float(row[3]),
                absorb_s=float(row[4]),
                total_s=float(row[5]),
                shift_s=float(row[6]) if len(row) > 6 else 0.0,
            ))
    return records
