"""Shared problem generators and check helpers for the test suite."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
import ricadi.shifts as shifts_mod
from invariants import brad_residual_check
from ricadi.oracle import DENSE_ORACLE_MAX_N

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


def singular_e_problem(seed, n):
    """random_problem(seed, n, m=1, p=2, generalized=True) with E's last row
    zeroed, so that E is singular and A* - mu E* is not."""
    prob = random_problem(seed, n=n, m=1, p=2, generalized=True)
    E = prob.E.tolil()
    E[-1, :] = 0.0
    return replace(prob, E=E.tocsr())


def rotating_problem(n, seed):
    """Real non-normal problem (m = p = 1) whose residual Hamiltonian has
    complex modes: A is a perturbed block diagonal of damped rotations."""
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        J[i, i] = J[i + 1, i + 1] = -0.3 - 0.1 * i
        J[i, i + 1] = 2.0 + i
        J[i + 1, i] = -(2.0 + i)
    A = sp.csr_matrix(J + 0.05 * rng.standard_normal((n, n)) - 0.5 * np.eye(n))
    return rc.ProblemSpec(A=A, B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((1, n)))


def fem1d_pair(n):
    """Linear-FEM stiffness (negated) and mass matrix on (0, 1), n nodes."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    K = sp.diags([-ones / h, 2.0 * np.ones(n) / h, -ones / h], [-1, 0, 1])
    M = sp.diags([ones * h / 6, 4.0 * np.ones(n) * h / 6, ones * h / 6], [-1, 0, 1])
    return (-K).tocsr(), M.tocsr()


def graded_fem1d_pair(n):
    """Linear-FEM stiffness (negated) and mass matrix on the graded nodes (i/(n+1))^3.

    Element lengths shrink cubically towards x = 0, which makes the mass
    matrix far more graded than fem1d_pair's.
    """
    x = (np.arange(n + 2) / (n + 1)) ** 3
    h = np.diff(x)
    left, right = h[:-1], h[1:]  # the elements to either side of each node
    inner = h[1:-1]
    K = sp.diags([-1.0 / inner, 1.0 / left + 1.0 / right, -1.0 / inner], [-1, 0, 1])
    M = sp.diags([inner / 6, (left + right) / 3, inner / 6], [-1, 0, 1])
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
    checks = brad_residual_check(state, problem)
    bad = {k: v for k, v in checks.items() if not v <= tol}
    assert not bad, f"state invariants violated: {bad}"
    if np.iscomplexobj(state.Hminus):
        # complex trsyl reads only the upper triangle
        assert not np.any(np.diag(state.Hminus, -1)), \
            "complex Hminus has a nonzero subdiagonal"
    assert_quasi_triangular(state.Hminus)


def assert_quasi_triangular(H):
    """Assert the form the small Sylvester solve reads from Hminus.

    Upper quasi-triangular: zero below the first subdiagonal, and 2-by-2
    diagonal blocks that never overlap.
    """
    assert not np.any(np.tril(H, -2)), "Hminus has entries below its subdiagonal"
    sub = np.diag(H, -1) != 0
    assert not np.any(sub[1:] & sub[:-1]), "Hminus has overlapping 2-by-2 blocks"


class RecordingShifts:
    """Wraps a shift source and records every emitted batch in order."""

    def __init__(self, inner):
        self.inner = inner
        self.emitted = []
        self.batches = []

    def next_shifts(self, state, problem, batch, system):
        out = self.inner.next_shifts(state, problem, batch, system)
        self.emitted.extend(out)
        self.batches.append(list(out))
        return out


class WindowShifts:
    """HamiltonianShifts' rule on the last `window` columns of Z, not 2p."""

    def __init__(self, window):
        self.window = window

    def next_shifts(self, state, problem, batch, system):
        return [shifts_mod._best_shift(shifts_mod.projected_hamiltonian(
            state, problem, self.window, system.e_factor))]


def one_shift_per_step(problem, shifts):
    """Complex-storage reference: the r2adi state after the shifts, one per step.

    The state starts complex-typed, so conjugate pairs are not realified:
    every complex shift costs its own complex solve.
    """
    state = brad.init_state(problem)
    state = replace(state, **{name: getattr(state, name).astype(complex)
                              for name in ("Z", "h", "Hminus", "SB", "R", "K")})
    for mu in shifts:
        block = brad.expand_parallel(state, problem, [mu])
        state = brad.absorb_r2adi(state, problem, block)
    return state


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def projected_system_zeros(state):
    """Zeros of the rational residual factor read off the normalized state."""
    return np.linalg.eigvals(state.Hminus - state.h.conj().T @ state.h)


def rational_residual_factor(problem, poles, zeros):
    """Evaluate prod_i (A* - zero_i I)(A* - pole_i I)^{-1} C* for p = 1."""
    if problem.p != 1:
        raise ValueError("rational residual factor requires p = 1")
    n = problem.n
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense evaluation limited to n <= {DENSE_ORACLE_MAX_N}")
    poles = list(np.asarray(poles, dtype=complex).ravel())
    zeros = list(np.asarray(zeros, dtype=complex).ravel())
    if len(poles) != len(zeros):
        raise ValueError("poles and zeros must have equal length")
    At = _dense(problem.A).conj().T.astype(complex)
    if problem.E is not None:
        # evaluate in the E-transformed variables: (A E^{-1})^* acting on E^{-*} C^*
        Einv = np.linalg.inv(_dense(problem.E))
        At = Einv.conj().T @ At
        out = Einv.conj().T @ problem.C.conj().T.astype(complex)
    else:
        out = problem.C.conj().T.astype(complex)
    I = np.eye(n)
    eigs = np.linalg.eigvals(At)
    for s, lam in zip(reversed(poles), reversed(zeros)):
        M = At - s * I
        if np.min(np.abs(eigs - s)) <= 1e-12 * max(np.max(np.abs(eigs)), 1.0):
            raise ValueError(f"pole {s} hits the spectrum of A*")
        out = np.linalg.solve(M, out)
        out = At @ out - lam * out
    if problem.E is not None:
        out = _dense(problem.E).conj().T @ out
    return out


def write_shift_file(shifts, path):
    """Write shifts as the "re im" lines that read_shift_file reads."""
    with open(path, "w") as fh:
        for s in shifts:
            s = complex(s)
            fh.write(f"{s.real:.17g} {s.imag:.17g}\n")


def scalar_problem():
    """The 1-by-1 problem A=-1, B=1, C=1 with closed-form solution sqrt(2)-1."""
    A = sp.csr_matrix(np.array([[-1.0]]))
    return rc.ProblemSpec(A=A, B=np.array([[1.0]]), C=np.array([[1.0]]))
