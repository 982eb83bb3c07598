"""Tests for the dense reference solver and verification identities."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
from ricadi.oracle import DENSE_ORACLE_MAX_N, residual_defect
from conftest import (
    projected_system_zeros,
    random_problem,
    rational_residual_factor,
    scalar_problem,
)
from invariants import closed_loop_pole_check, eigenvalue_match_distance


def test_dense_care_scalar():
    ref = rc.dense_care(scalar_problem())
    np.testing.assert_allclose(ref.X, [[np.sqrt(2.0) - 1.0]], atol=1e-12)
    assert ref.closed_loop_spectrum.real.max() < 0


def test_dense_care_zero_forcing():
    A = sp.csr_matrix(np.diag([-1.0, -3.0]))
    prob = rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=np.zeros((1, 2)))
    np.testing.assert_allclose(rc.dense_care(prob).X, np.zeros((2, 2)),
                               atol=1e-12)


def test_dense_care_lyapunov_entrywise():
    A = sp.csr_matrix(np.diag([-1.0, -2.0]))
    prob = rc.ProblemSpec(A=A, B=None, C=np.ones((1, 2)))
    X = rc.dense_care(prob).X
    want = np.array([[1.0 / 2.0, 1.0 / 3.0], [1.0 / 3.0, 1.0 / 4.0]])
    np.testing.assert_allclose(X, want, atol=1e-12)


def test_dense_care_rejects_unstabilizable():
    # A unstable, B = 0: no stabilizing solution exists
    A = sp.csr_matrix(np.array([[1.0]]))
    prob = rc.ProblemSpec(A=A, B=None, C=np.array([[1.0]]))
    with pytest.raises(RuntimeError, match="stabiliz|positive"):
        rc.dense_care(prob)


def test_dense_care_generalized_consistency():
    prob = random_problem(70, n=30, m=2, p=2, generalized=True)
    ref = rc.dense_care(prob)
    _, norm = rc.dense_residual(prob, ref.X)
    cc = np.linalg.norm(prob.C.conj().T @ prob.C, 2)
    assert norm <= 1e-8 * cc
    assert np.linalg.eigvalsh(ref.X).min() >= -1e-10 * \
        max(np.linalg.norm(ref.X, 2), 1.0)


def test_dense_residual_zero_solution():
    prob = random_problem(71, n=10, m=1, p=2)
    res, norm = rc.dense_residual(prob, np.zeros((10, 10)))
    CtC = prob.C.conj().T @ prob.C
    np.testing.assert_allclose(res, CtC, atol=1e-14)
    np.testing.assert_allclose(norm, np.linalg.norm(CtC, 2), atol=1e-12)


def test_dense_references_reject_large_or_misshapen_input():
    n = DENSE_ORACLE_MAX_N + 1
    big = rc.ProblemSpec(A=sp.diags(-np.ones(n)), B=None, C=np.ones((1, n)))
    with pytest.raises(ValueError, match=f"limited to n <= {DENSE_ORACLE_MAX_N}"):
        rc.dense_care(big)
    prob = random_problem(71, n=10, m=1, p=2)
    with pytest.raises(ValueError, match=r"X must be 10x10, got \(10, 9\)"):
        rc.dense_residual(prob, np.zeros((10, 9)))


def test_dense_residual_matches_rank_p_factor():
    prob = random_problem(72, n=30, m=2, p=2)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60),
                   rc.HamiltonianShifts())
    assert res.converged
    X = res.Z @ res.Z.conj().T
    mat, _ = rc.dense_residual(prob, X)
    cc = np.linalg.norm(prob.C.conj().T @ prob.C, 2)
    assert np.linalg.norm(mat - res.R @ res.R.conj().T, 2) <= 1e-9 * cc


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("generalized", [False, True])
@pytest.mark.parametrize("complex_data", [False, True])
def test_residual_defect_is_a_sharp_lower_bound(complex_data, generalized, m):
    # An arbitrary Z and R, so that R(Z Z*) - R R* is far from zero. Over 200
    # such inputs (n = 5 to 300, every data kind) the estimate read at least
    # 0.87 of the exact value; the stated factor is 2.
    n = 120
    prob = random_problem(74, n=n, m=m, p=2, generalized=generalized,
                          complex_data=complex_data)
    rng = np.random.default_rng(74)
    Z, R = 0.1 * rng.standard_normal((n, 6)), rng.standard_normal((n, 2))
    if complex_data:
        Z = Z + 0.1j * rng.standard_normal(Z.shape)
        R = R + 1j * rng.standard_normal(R.shape)
    mat, _ = rc.dense_residual(prob, Z @ Z.conj().T)
    cc = np.linalg.norm(prob.C.conj().T @ prob.C, 2)
    exact = np.linalg.norm(mat - R @ R.conj().T, 2) / cc
    estimate = residual_defect(prob, Z, R)
    assert exact / 2 <= estimate <= exact * (1 + 1e-12)
    assert residual_defect(prob, Z, R) == estimate


@pytest.mark.parametrize("generalized", [False, True])
@pytest.mark.parametrize("complex_data", [False, True])
def test_residual_defect_of_a_solve(complex_data, generalized):
    prob = random_problem(75, n=DENSE_ORACLE_MAX_N, m=1, p=2,
                          generalized=generalized, complex_data=complex_data)
    # the initial state, Z empty and R = C*, has no defect at all
    assert residual_defect(prob, np.zeros((prob.n, 0)), prob.C.conj().T) == 0.0
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9), rc.HamiltonianShifts())
    assert res.converged
    mat, _ = rc.dense_residual(prob, res.Z @ res.Z.conj().T)
    cc = np.linalg.norm(prob.C.conj().T @ prob.C, 2)
    exact = np.linalg.norm(mat - res.R @ res.R.conj().T, 2) / cc
    # both read roundoff here, where neither bounds the other
    assert max(exact, residual_defect(prob, res.Z, res.R)) <= 1e-14


def test_rational_factor_telescoping():
    prob = random_problem(73, n=15, m=1, p=1)
    poles = [1.0, 2.0 + 1.0j]
    out = rational_residual_factor(prob, poles, poles)
    np.testing.assert_allclose(out, prob.C.conj().T, atol=1e-12)


def test_rational_factor_diagonal_entrywise():
    A = sp.csr_matrix(np.diag([-1.0, -2.0]))
    C = np.array([[1.0, 2.0]])
    prob = rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=C)
    lam = -0.3
    out = rational_residual_factor(prob, [1.0], [lam])
    diag = np.array([-1.0, -2.0])
    want = ((diag - lam) / (diag - 1.0)) * C[0]
    np.testing.assert_allclose(out[:, 0], want, atol=1e-14)


def test_rational_factor_requires_p1():
    prob = random_problem(74, n=10, m=1, p=2)
    with pytest.raises(ValueError, match="p = 1"):
        rational_residual_factor(prob, [1.0], [1.0])


def test_rational_factor_length_mismatch():
    prob = random_problem(75, n=10, m=1, p=1)
    with pytest.raises(ValueError, match="equal length"):
        rational_residual_factor(prob, [1.0, 2.0], [1.0])


def test_rational_factor_pole_on_spectrum():
    A = sp.csr_matrix(np.diag([-1.0, -2.0]))
    prob = rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=np.ones((1, 2)))
    with pytest.raises(ValueError, match="spectrum"):
        rational_residual_factor(prob, [-1.0 + 0j], [0.5])


def test_projected_zeros_and_pole_check_scalar():
    prob = scalar_problem()
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    # the state normalization forces Hm + Hm* = SB*SB + h*h = 2 for s = 1
    gram = state.SB.conj().T @ state.SB + state.h.conj().T @ state.h
    np.testing.assert_allclose(gram, [[2.0]], atol=1e-13)
    closed = state.Hminus - gram
    np.testing.assert_allclose(np.linalg.eigvals(closed), [-1.0],
                               atol=1e-13)
    assert closed_loop_pole_check(state, prob) <= 1e-12


def test_pole_check_detects_corruption():
    prob = random_problem(76, n=20, m=1, p=1)
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    state = replace(state, h=state.h + 0.1)
    assert closed_loop_pole_check(state, prob) > 1e-3


def test_pole_check_empty_state():
    prob = scalar_problem()
    assert closed_loop_pole_check(brad.init_state(prob), prob) == 0.0


def test_projected_zeros_rational_factor_consistency():
    prob = random_problem(77, n=40, m=1, p=1)
    states = []
    rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=4),
             rc.HamiltonianShifts(),
             callback=lambda s, r: states.append(s))
    for s in states:
        zeros = projected_system_zeros(s)
        fac = rational_residual_factor(prob, s.poles, zeros)
        err = np.linalg.norm(s.R - fac.real) / np.linalg.norm(s.R)
        assert err <= 1e-8


def test_eigenvalue_match_distance():
    assert eigenvalue_match_distance([1, 2j], [2j, 1]) == 0.0
    assert eigenvalue_match_distance([1.0], [1.5]) == 0.5
    assert eigenvalue_match_distance([1.0], [1.0, 2.0]) == np.inf
    assert eigenvalue_match_distance([], []) == 0.0
