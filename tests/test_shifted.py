"""Tests for the shifted factorizations and SMW-corrected solves."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ricadi as rc
import ricadi.shifted as shifted_mod
from conftest import fem1d_pair, random_problem, stable_sparse
from ricadi.errors import SingularShiftError, SMWSingularError
from ricadi.shifted import factorize, smw_solve, solve_factored


def test_factorize_minus_identity():
    f = factorize(sp.csr_matrix(-np.eye(3)), mu=1.0)
    e1 = np.zeros((3, 1))
    e1[0, 0] = 1.0
    np.testing.assert_allclose(solve_factored(f, e1), -0.5 * e1,
                               atol=1e-15)


def test_factorize_diagonal():
    f = factorize(sp.csr_matrix(np.diag([-1.0, -2.0])), mu=1.0)
    got = solve_factored(f, np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(got, [[-0.5], [-1.0 / 3.0]], atol=1e-15)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_factorize_singular_shift():
    # mu in the spectrum of A*
    with pytest.raises(SingularShiftError):
        factorize(sp.csr_matrix(np.diag([1.0, -2.0])), mu=1.0)


def test_factorize_generalized():
    A = sp.csr_matrix(np.array([[-2.0]]))
    E = sp.csr_matrix(np.array([[2.0]]))
    f = factorize(A, E, mu=1.0)
    np.testing.assert_allclose(solve_factored(f, [[1.0]]), [[-0.25]])


def test_factorize_conjugates_a():
    A = sp.csr_matrix(np.array([[-1.0 + 1.0j]]))
    f = factorize(A, mu=2.0)
    # A* - 2 = -3 - 1j
    np.testing.assert_allclose(solve_factored(f, [[1.0]]),
                               [[1.0 / (-3 - 1j)]], atol=1e-15)


def test_solve_factored_zero_rhs():
    f = factorize(sp.csr_matrix(-np.eye(4)), mu=1.0)
    np.testing.assert_array_equal(solve_factored(f, np.zeros((4, 2))),
                                  np.zeros((4, 2)))
    assert solve_factored(f, np.zeros((4, 0))).shape == (4, 0)


def test_solve_factored_scalar_pipeline():
    f = factorize(sp.csr_matrix(np.array([[-1.0]])), mu=1.0)
    np.testing.assert_allclose(solve_factored(f, [[1.0]]), [[-0.5]])


def test_solve_factored_multi_rhs_is_columnwise():
    prob = random_problem(20, n=12, m=2, p=3)
    f = factorize(prob.A, mu=1.5)
    rng = np.random.default_rng(0)
    RHS = rng.standard_normal((12, 4))
    full = solve_factored(f, RHS)
    for j in range(4):
        np.testing.assert_allclose(full[:, j:j + 1],
                                   solve_factored(f, RHS[:, j:j + 1]),
                                   atol=1e-13)


def test_solve_factored_wrong_rows():
    f = factorize(sp.csr_matrix(-np.eye(3)), mu=1.0)
    with pytest.raises(ValueError, match="rows"):
        solve_factored(f, np.zeros((4, 1)))


def test_factorize_sparse_path_matches_dense():
    # n above the dense threshold exercises the sparse LU branch; a complex
    # block reaches a real factor when real A comes with complex C, or after
    # a complex shift on a state stored in complex form
    n = 600
    A = stable_sparse(n, 5, density=0.01)
    mu = 2.5
    f = factorize(A, mu=mu)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((n, 2))
    dense = A.toarray().conj().T - mu * np.eye(n)
    for b in (rhs, rhs + 1j * rng.standard_normal((n, 2))):
        np.testing.assert_allclose(solve_factored(f, b),
                                   np.linalg.solve(dense, b), atol=1e-9)


def _laplacian_2d(grid):
    T = sp.diags([np.ones(grid - 1), -2.0 * np.ones(grid), np.ones(grid - 1)],
                 [-1, 0, 1])
    I = sp.identity(grid)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def test_sparse_ordering_is_minimum_degree_on_a_plus_at(monkeypatch):
    # SuperLU orders A* - mu E* by minimum degree on its symmetrized pattern
    # (less fill than its COLAMD default on stencil operators)
    A = _laplacian_2d(24)
    seen = []

    def spy(M, **kwargs):
        seen.append(kwargs.get("permc_spec") or "COLAMD")  # splu's default
        return spla.splu(M, **kwargs)

    monkeypatch.setattr(shifted_mod, "spla", SimpleNamespace(splu=spy))
    f = factorize(A, mu=3.0)
    assert A.shape[0] >= 500 and seen == ["MMD_AT_PLUS_A"]
    rhs = np.random.default_rng(4).standard_normal((A.shape[0], 2))
    dense = A.toarray().T - 3.0 * np.eye(A.shape[0])
    np.testing.assert_allclose(solve_factored(f, rhs),
                               np.linalg.solve(dense, rhs), atol=1e-9)


def test_smw_rank_zero_update():
    prob = random_problem(21, n=10, m=2, p=1)
    f = factorize(prob.A, mu=1.0)
    rng = np.random.default_rng(2)
    RHS = rng.standard_normal((10, 1))
    np.testing.assert_allclose(
        smw_solve(f, np.zeros((10, 2)), prob.B, RHS),
        solve_factored(f, RHS), atol=1e-13)


def test_smw_empty_b():
    f = factorize(sp.csr_matrix(-np.eye(4)), mu=1.0)
    RHS = np.ones((4, 1))
    np.testing.assert_allclose(
        smw_solve(f, np.zeros((4, 0)), np.zeros((4, 0)), RHS),
        solve_factored(f, RHS))


def test_smw_scalar_hand_value():
    # (A* - K B* - mu) w = r with A=-1, B=1, K=0.4, mu=sqrt(2), r=0.2
    f = factorize(sp.csr_matrix(np.array([[-1.0]])), mu=np.sqrt(2))
    got = smw_solve(f, [[0.4]], [[1.0]], [[0.2]])
    want = 0.2 / (-1.0 - 0.4 - np.sqrt(2))
    np.testing.assert_allclose(got, [[want]], atol=1e-14)
    assert abs(got[0, 0] - (-0.0710678)) < 1e-7


def test_smw_matches_dense_solve():
    prob = random_problem(22, n=40, m=3, p=2)
    rng = np.random.default_rng(3)
    K = rng.standard_normal((40, 3))
    RHS = rng.standard_normal((40, 2))
    mu = 1.7
    f = factorize(prob.A, mu=mu)
    got = smw_solve(f, K, prob.B, RHS)
    M = prob.A.toarray().conj().T - K @ prob.B.conj().T - mu * np.eye(40)
    np.testing.assert_allclose(got, np.linalg.solve(M, RHS), atol=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_smw_singular_capacitance():
    # A* - mu = -2; with K = -2, B = 1 the capacitance 1 - B*N vanishes
    f = factorize(sp.csr_matrix(np.array([[-1.0]])), mu=1.0)
    with pytest.raises(SMWSingularError):
        smw_solve(f, [[-2.0]], [[1.0]], [[1.0]])


def _scipy_difference(A, E, mu):
    """Reference: A* - mu E* as scipy forms it from scratch for each shift."""
    n = A.shape[0]
    Ah = A.conj().T.tocsc()
    M = Ah - mu * (sp.identity(n, format="csc") if E is None
                   else E.conj().T.tocsc())
    return M.toarray() if n < shifted_mod.DENSE_LU_BELOW_N else sp.csc_matrix(M)


def _with_zeros(A):
    """A with a stored zero, and with A[0, 0] = 2.5 so that A* - 2.5 I cancels."""
    A = A.copy()
    A.data[7] = 0.0
    A[0, 0] = 2.5
    return A


def _pair(prob):
    return prob.A, prob.E


PENCIL_CASES = {
    "no-E": lambda: (stable_sparse(600, 5, density=0.01), None),
    "E-on-A-pattern": lambda: fem1d_pair(600),
    "E-other-pattern": lambda: _pair(random_problem(45, n=520, generalized=True)),
    "complex": lambda: _pair(random_problem(46, n=520, generalized=True,
                                            complex_data=True)),
    "zeros": lambda: (_with_zeros(stable_sparse(600, 6, 0.01)), None),
    "dense-no-E": lambda: (random_problem(47, n=60).A, None),
    "dense-E": lambda: _pair(random_problem(48, n=60, generalized=True,
                                            complex_data=True)),
}


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_factorize_matrix_is_bitwise_the_scipy_difference(monkeypatch, case):
    A, E = PENCIL_CASES[case]()
    seen = []

    def spy(M, *args, **kwargs):
        seen.append(M.copy())
        return (spla.splu if sp.issparse(M) else sla.lu_factor)(M, *args, **kwargs)

    monkeypatch.setattr(shifted_mod, "spla", SimpleNamespace(splu=spy))
    monkeypatch.setattr(shifted_mod, "sla",
                        SimpleNamespace(lu_factor=spy, lu_solve=sla.lu_solve))
    mus = (2.5, 1.5 + 0.75j, 2.5)
    for mu in mus:
        factorize(A, E, mu)
    for mu, M in zip(mus, seen):
        mu = mu.real if complex(mu).imag == 0 else mu
        want = _scipy_difference(A, E, mu)
        assert M.dtype == want.dtype
        if sp.issparse(want):
            for attr in ("data", "indices", "indptr"):
                assert getattr(M, attr).tobytes() == getattr(want, attr).tobytes()
        else:
            assert M.tobytes() == want.tobytes()
    assert len(seen) == len(mus)


def test_parallel_batch_is_factored_in_the_pool(monkeypatch):
    spans = []
    original = shifted_mod.factorize

    def recording(A, E, mu):
        spans.append(threading.get_ident())
        return original(A, E, mu)

    monkeypatch.setattr(shifted_mod, "factorize", recording)
    prob = random_problem(50, n=40, m=1, p=1)
    rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2, parallel_width=2),
             [1.0, 2.0, 4.0, 8.0])
    assert len(spans) == 4 and threading.get_ident() not in spans
