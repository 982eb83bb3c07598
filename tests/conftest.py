"""Shared problem generators and check helpers for the test suite."""

from pathlib import Path

import numpy as np
import scipy.sparse as sp

import ricadi as rc

INVARIANT_TOL = 1e-10

# the benchmark's directory; its tracer and residual checks are imported from here
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def stable_sparse(n, seed, density=0.1):
    """Random sparse matrix made stable by a diagonally dominant shift."""
    rs = np.random.RandomState(seed)
    M = sp.random(n, n, density=density, random_state=rs, format="csr")
    shift = float(abs(M).sum(axis=1).max()) + 1.0
    return (M - shift * sp.identity(n, format="csr")).tocsr()


def spd_sparse(n, seed, density=0.1):
    """Random sparse symmetric positive definite matrix (diagonally dominant)."""
    rs = np.random.RandomState(seed)
    M = sp.random(n, n, density=density, random_state=rs, format="csr")
    S = 0.5 * (M + M.T)
    shift = float(abs(S).sum(axis=1).max()) + 1.0
    return (S + shift * sp.identity(n, format="csr")).tocsr()


def random_problem(seed, n=30, m=1, p=1, generalized=False, complex_data=False):
    """Random stable test problem; E is SPD when generalized is set.

    Complex problems add an imaginary Hermitian part to A, which leaves the
    field of values' real part (hence stability) untouched.
    """
    rng = np.random.default_rng(seed)
    A = stable_sparse(n, seed)
    if complex_data:
        S = spd_sparse(n, seed + 7)
        A = (A + 0.3j * S).tocsr()
    B = rng.standard_normal((n, m)) if m else None
    C = rng.standard_normal((p, n))
    if complex_data:
        if m:
            B = B + 1j * rng.standard_normal((n, m))
        C = C + 1j * rng.standard_normal((p, n))
    E = spd_sparse(n, seed + 1) if generalized else None
    return rc.ProblemSpec(A=A, B=B, C=C, E=E)


def fem1d_pair(n):
    """Linear-FEM stiffness (negated) and mass matrix on (0, 1), n nodes."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    K = sp.diags([-ones / h, 2.0 * np.ones(n) / h, -ones / h], [-1, 0, 1])
    M = sp.diags([ones * h / 6, 4.0 * np.ones(n) * h / 6, ones * h / 6], [-1, 0, 1])
    return (-K).tocsr(), M.tocsr()


def dense_defect(problem, result):
    """||R(ZZ*) - RR*||_2 / ||C*C||_2 from the dense residual (small n)."""
    residual, _ = rc.dense_residual(problem, dense_x(result))
    cc = np.linalg.norm(problem.C.conj().T @ problem.C, 2)
    return np.linalg.norm(residual - result.R @ result.R.conj().T, 2) / cc


def dense_x(result_or_state):
    Z = getattr(result_or_state, "Z")
    return Z @ Z.conj().T


def rel2(X, Y):
    """Relative spectral-norm distance of two dense matrices."""
    denom = max(np.linalg.norm(Y, 2), 1e-300)
    return float(np.linalg.norm(np.asarray(X) - np.asarray(Y), 2) / denom)


def assert_invariants(state, problem, tol=INVARIANT_TOL):
    checks = rc.brad_residual_check(state, problem)
    bad = {k: v for k, v in checks.items() if not v <= tol}
    assert not bad, f"state invariants violated: {bad}"


class RecordingShifts:
    """Wraps a shift source and records every emitted batch in order."""

    def __init__(self, inner):
        self.inner = inner
        self.emitted = []
        self.batches = []

    def next_shifts(self, state, problem, batch=1):
        out = self.inner.next_shifts(state, problem, batch=batch)
        self.emitted.extend(out)
        self.batches.append(list(out))
        return out


def one_shift_per_step(problem, shifts):
    """Complex-storage reference: the r2adi state after the shifts, one per step.

    Conjugate pairs are not realified: every complex shift costs its own
    complex solve and the state of a real problem becomes complex.
    """
    state = rc.init_state(problem)
    for mu in shifts:
        block = rc.expand_parallel(state, problem, [mu])
        state = rc.absorb_r2adi(state, problem, block)
    return state


def scalar_problem():
    """The 1-by-1 problem A=-1, B=1, C=1 with closed-form solution sqrt(2)-1."""
    A = sp.csr_matrix(np.array([[-1.0]]))
    return rc.ProblemSpec(A=A, B=np.array([[1.0]]), C=np.array([[1.0]]))
