"""Tests for the shifted factorizations and SMW-corrected solves."""

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
from conftest import random_problem, stable_sparse
from ricadi.errors import SingularShiftError, SMWSingularError


def test_factorize_minus_identity():
    f = rc.factorize(sp.csr_matrix(-np.eye(3)), mu=1.0)
    e1 = np.zeros((3, 1))
    e1[0, 0] = 1.0
    np.testing.assert_allclose(rc.solve_factored(f, e1), -0.5 * e1,
                               atol=1e-15)


def test_factorize_diagonal():
    f = rc.factorize(sp.csr_matrix(np.diag([-1.0, -2.0])), mu=1.0)
    got = rc.solve_factored(f, np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(got, [[-0.5], [-1.0 / 3.0]], atol=1e-15)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_factorize_singular_shift():
    # mu in the spectrum of A*
    with pytest.raises(SingularShiftError):
        rc.factorize(sp.csr_matrix(np.diag([1.0, -2.0])), mu=1.0)


def test_factorize_generalized():
    A = sp.csr_matrix(np.array([[-2.0]]))
    E = sp.csr_matrix(np.array([[2.0]]))
    f = rc.factorize(A, E, mu=1.0)
    np.testing.assert_allclose(rc.solve_factored(f, [[1.0]]), [[-0.25]])


def test_factorize_conjugates_a():
    A = sp.csr_matrix(np.array([[-1.0 + 1.0j]]))
    f = rc.factorize(A, mu=2.0)
    # A* - 2 = -3 - 1j
    np.testing.assert_allclose(rc.solve_factored(f, [[1.0]]),
                               [[1.0 / (-3 - 1j)]], atol=1e-15)


def test_solve_factored_zero_rhs():
    f = rc.factorize(sp.csr_matrix(-np.eye(4)), mu=1.0)
    np.testing.assert_array_equal(rc.solve_factored(f, np.zeros((4, 2))),
                                  np.zeros((4, 2)))
    assert rc.solve_factored(f, np.zeros((4, 0))).shape == (4, 0)


def test_solve_factored_scalar_pipeline():
    f = rc.factorize(sp.csr_matrix(np.array([[-1.0]])), mu=1.0)
    np.testing.assert_allclose(rc.solve_factored(f, [[1.0]]), [[-0.5]])


def test_solve_factored_multi_rhs_is_columnwise():
    prob = random_problem(20, n=12, m=2, p=3)
    f = rc.factorize(prob.A, mu=1.5)
    rng = np.random.default_rng(0)
    RHS = rng.standard_normal((12, 4))
    full = rc.solve_factored(f, RHS)
    for j in range(4):
        np.testing.assert_allclose(full[:, j:j + 1],
                                   rc.solve_factored(f, RHS[:, j:j + 1]),
                                   atol=1e-13)


def test_solve_factored_wrong_rows():
    f = rc.factorize(sp.csr_matrix(-np.eye(3)), mu=1.0)
    with pytest.raises(ValueError, match="rows"):
        rc.solve_factored(f, np.zeros((4, 1)))


def test_factorize_sparse_path_matches_dense():
    # n above the dense threshold exercises the sparse LU branch; a complex
    # block reaches the real factor after a complex shift with realify off
    n = 600
    A = stable_sparse(n, 5, density=0.01)
    mu = 2.5
    f = rc.factorize(A, mu=mu)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((n, 2))
    dense = A.toarray().conj().T - mu * np.eye(n)
    for b in (rhs, rhs + 1j * rng.standard_normal((n, 2))):
        np.testing.assert_allclose(rc.solve_factored(f, b),
                                   np.linalg.solve(dense, b), atol=1e-9)


def test_smw_rank_zero_update():
    prob = random_problem(21, n=10, m=2, p=1)
    f = rc.factorize(prob.A, mu=1.0)
    rng = np.random.default_rng(2)
    RHS = rng.standard_normal((10, 1))
    np.testing.assert_allclose(
        rc.smw_solve(f, np.zeros((10, 2)), prob.B, RHS),
        rc.solve_factored(f, RHS), atol=1e-13)


def test_smw_empty_b():
    f = rc.factorize(sp.csr_matrix(-np.eye(4)), mu=1.0)
    RHS = np.ones((4, 1))
    np.testing.assert_allclose(
        rc.smw_solve(f, np.zeros((4, 0)), np.zeros((4, 0)), RHS),
        rc.solve_factored(f, RHS))


def test_smw_scalar_hand_value():
    # (A* - K B* - mu) w = r with A=-1, B=1, K=0.4, mu=sqrt(2), r=0.2
    f = rc.factorize(sp.csr_matrix(np.array([[-1.0]])), mu=np.sqrt(2))
    got = rc.smw_solve(f, [[0.4]], [[1.0]], [[0.2]])
    want = 0.2 / (-1.0 - 0.4 - np.sqrt(2))
    np.testing.assert_allclose(got, [[want]], atol=1e-14)
    assert abs(got[0, 0] - (-0.0710678)) < 1e-7


def test_smw_matches_dense_solve():
    prob = random_problem(22, n=40, m=3, p=2)
    rng = np.random.default_rng(3)
    K = rng.standard_normal((40, 3))
    RHS = rng.standard_normal((40, 2))
    mu = 1.7
    f = rc.factorize(prob.A, mu=mu)
    got = rc.smw_solve(f, K, prob.B, RHS)
    M = prob.A.toarray().conj().T - K @ prob.B.conj().T - mu * np.eye(40)
    np.testing.assert_allclose(got, np.linalg.solve(M, RHS), atol=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_smw_singular_capacitance():
    # A* - mu = -2; with K = -2, B = 1 the capacitance 1 - B*N vanishes
    f = rc.factorize(sp.csr_matrix(np.array([[-1.0]])), mu=1.0)
    with pytest.raises(SMWSingularError):
        rc.smw_solve(f, [[-2.0]], [[1.0]], [[1.0]])
