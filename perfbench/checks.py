"""Independent residual checks of a finished solve.

Both checks compare the exact Riccati residual of X = Z Z* with the residual
factor R that the iteration maintains, relative to ||C*C||_2. They use only
the problem matrices and the returned factors, never the solver's kernels.
"""

import numpy as np


def norm_cc(C):
    """||C*C||_2, the largest eigenvalue of the small Gram matrix C C*."""
    C = np.atleast_2d(C)
    return float(np.linalg.eigvalsh(C @ C.conj().T)[-1])


def dense_defect(dense_residual, problem, Z, R):
    """||R(ZZ*) - RR*||_F / ||C*C||_2 via ricadi.oracle.dense_residual (small n).

    The Frobenius norm bounds the 2-norm from above and costs O(n^2).
    """
    res, _ = dense_residual(problem, Z @ Z.conj().T)
    return float(np.linalg.norm(res - R @ R.conj().T)) / norm_cc(problem.C)


def residual_operator(problem, Z, R):
    """V -> (R(ZZ*) - RR*) V, without forming any n-by-n matrix."""
    A, B, C, E = problem.A, problem.B, problem.C, problem.E
    AH = A.conj().T
    EH = E.conj().T if E is not None else None
    ZHB = Z.conj().T @ B

    def emul(V):
        return V if E is None else E @ V

    def ehmul(V):
        return V if E is None else EH @ V

    def apply(V):
        ZEV = Z.conj().T @ emul(V)
        out = AH @ (Z @ ZEV) + ehmul(Z @ (Z.conj().T @ (A @ V)))
        out += C.conj().T @ (C @ V)
        out -= ehmul(Z @ (ZHB @ (ZHB.conj().T @ ZEV)))
        out -= R @ (R.conj().T @ V)
        return out

    return apply


def matfree_defect(problem, Z, R, seed=0, block=4, iterations=3):
    """Estimate ||R(ZZ*) - RR*||_2 / ||C*C||_2 by block power iteration.

    The operator is Hermitian, so a few iterations on a random block give a
    lower estimate of its 2-norm that is sharp to within a small factor.
    """
    rng = np.random.default_rng(seed)
    n = problem.n
    V = rng.standard_normal((n, block))
    if not problem.is_real:
        V = V + 1j * rng.standard_normal((n, block))
    apply = residual_operator(problem, Z, R)
    estimate = 0.0
    for _ in range(iterations):
        norms = np.linalg.norm(V, axis=0)
        V = V / norms
        W = apply(V)
        estimate = float(np.max(np.linalg.norm(W, axis=0)))
        V = W
        if estimate == 0.0:
            break
    return estimate / norm_cc(problem.C)
