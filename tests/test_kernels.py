"""Tests for the small dense kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricadi as rc
from ricadi.errors import NotPositiveDefiniteError, SylvesterSingularError
from ricadi.kernels import eigenvalue_match_distance, hermitian_part


def kron_sylvester(Hc, D, RHS):
    """Oracle: solve Y D + Hc Y = RHS by Kronecker vectorization."""
    q, t = Hc.shape[0], D.shape[0]
    K = np.kron(np.eye(t), Hc) + np.kron(D.T, np.eye(q))
    y = np.linalg.solve(K, np.asarray(RHS).reshape(q * t, order="F"))
    return y.reshape(q, t, order="F")


# ---------------------------------------------------------------- cholesky

def test_cholesky_identity():
    np.testing.assert_array_equal(rc.cholesky_upper(np.eye(2)), np.eye(2))


def test_cholesky_scalar():
    np.testing.assert_array_equal(rc.cholesky_upper([[4.0]]), [[2.0]])


def test_cholesky_multiply_back():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    G = rc.cholesky_upper(M)
    assert np.allclose(np.triu(G), G)  # upper triangular
    assert np.all(np.diag(G) > 0)
    np.testing.assert_allclose(G.conj().T @ G, M, atol=1e-14)


def test_cholesky_complex_hermitian():
    M = np.array([[2.0, 1j], [-1j, 3.0]])
    G = rc.cholesky_upper(M)
    assert np.allclose(np.imag(np.diag(G)), 0)
    np.testing.assert_allclose(G.conj().T @ G, M, atol=1e-14)


def test_cholesky_not_positive_definite():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        rc.cholesky_upper(np.diag([1.0, -1.0]))
    assert exc.value.pivot == 1


def test_cholesky_near_singular():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    with pytest.raises(NotPositiveDefiniteError):
        rc.cholesky_upper(M)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
def test_cholesky_random_spd(seed, k, complex_data):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((k, k))
    if complex_data:
        F = F + 1j * rng.standard_normal((k, k))
    M = F.conj().T @ F + 0.1 * np.eye(k)
    G = rc.cholesky_upper(M)
    np.testing.assert_allclose(G.conj().T @ G, hermitian_part(M),
                               atol=1e-12 * np.linalg.norm(M))


# -------------------------------------------------------- spectral_norm_gram

def test_gram_norm_canonical_column():
    e1 = np.zeros((7, 1))
    e1[0, 0] = 1.0
    assert rc.spectral_norm_gram(e1) == 1.0


def test_gram_norm_zero():
    assert rc.spectral_norm_gram(np.zeros((5, 2))) == 0.0
    assert rc.spectral_norm_gram(np.zeros((5, 0))) == 0.0


def test_gram_norm_matches_svd():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((50, 3))
    want = np.linalg.svd(R, compute_uv=False)[0] ** 2
    assert abs(rc.spectral_norm_gram(R) - want) <= 1e-12 * want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4))
def test_gram_norm_random(seed, n, p):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    want = np.linalg.norm(R @ R.conj().T, 2)
    assert abs(rc.spectral_norm_gram(R) - want) <= 1e-11 * max(want, 1.0)


# ------------------------------------------------------------- sylvester

def test_sylvester_scalar():
    Y = rc.solve_sylvester_small([[1.0]], [[2.0]], [[3.0]])
    np.testing.assert_allclose(Y, [[1.0]])


def test_sylvester_zero_rhs():
    Y = rc.solve_sylvester_small(np.eye(3), 2 * np.eye(2), np.zeros((3, 2)))
    np.testing.assert_array_equal(Y, np.zeros((3, 2)))


def test_sylvester_empty():
    Y = rc.solve_sylvester_small(np.zeros((0, 0)), np.eye(2),
                                 np.zeros((0, 2)))
    assert Y.shape == (0, 2)


def test_sylvester_random_vs_kron():
    rng = np.random.default_rng(2)
    Hc = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    D = rng.standard_normal((2, 2)) + 4 * np.eye(2)
    RHS = rng.standard_normal((4, 2))
    Y = rc.solve_sylvester_small(Hc, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hc, D, RHS), atol=1e-12)


def test_sylvester_real_stays_real_with_complex_d_spectrum():
    # D has eigenvalues 1 +/- 1j; the result must be real for real data
    Hc = np.diag([2.0, 3.0, 4.0])
    D = np.array([[1.0, 1.0], [-1.0, 1.0]])
    rng = np.random.default_rng(3)
    RHS = rng.standard_normal((3, 2))
    Y = rc.solve_sylvester_small(Hc, D, RHS)
    assert not np.iscomplexobj(Y)
    np.testing.assert_allclose(Y, kron_sylvester(Hc, D, RHS), atol=1e-12)


def test_sylvester_triangular_fast_path():
    rng = np.random.default_rng(4)
    Hc = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
    D = rng.standard_normal((3, 3)) + 5 * np.eye(3)
    RHS = rng.standard_normal((5, 3))
    Y = rc.solve_sylvester_small(Hc, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hc, D, RHS), atol=1e-12)


def test_sylvester_complex_vs_kron():
    rng = np.random.default_rng(5)
    Hc = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) \
        + 4 * np.eye(3)
    D = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) \
        + 4 * np.eye(2)
    RHS = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    Y = rc.solve_sylvester_small(Hc, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hc, D, RHS), atol=1e-12)


def test_sylvester_singular_operator():
    # Hc = -D: spectra of -Hc and D coincide
    with pytest.raises(SylvesterSingularError):
        rc.solve_sylvester_small([[-2.0]], [[2.0]], [[1.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_sylvester_random_property(seed, q, t):
    rng = np.random.default_rng(seed)
    Hc = rng.standard_normal((q, q)) + (q + t) * np.eye(q)
    D = rng.standard_normal((t, t)) + (q + t) * np.eye(t)
    RHS = rng.standard_normal((q, t))
    Y = rc.solve_sylvester_small(Hc, D, RHS)
    np.testing.assert_allclose(Y @ D + Hc @ Y, RHS,
                               atol=1e-10 * max(np.linalg.norm(RHS), 1.0))


# -------------------------------------------------------------- lyapunov

def test_lyapunov_scalar_hand_value():
    Y = rc.solve_lyapunov_small([[1.0]], [[1.25]])
    np.testing.assert_allclose(Y, [[0.625]])


def test_lyapunov_identity_case():
    np.testing.assert_allclose(
        rc.solve_lyapunov_small(np.eye(3), 2 * np.eye(3)), np.eye(3),
        atol=1e-14)


def test_lyapunov_realified_block():
    D = np.array([[1.0, 1.0], [-1.0, 1.0]])
    RHS = np.eye(2)
    Y = rc.solve_lyapunov_small(D, RHS)
    assert not np.iscomplexobj(Y)
    np.testing.assert_allclose(Y @ D + D.conj().T @ Y, RHS, atol=1e-12)
    np.testing.assert_allclose(Y, Y.conj().T, atol=1e-14)


def test_lyapunov_hermitian_output():
    rng = np.random.default_rng(6)
    D = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) \
        + 4 * np.eye(3)
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    RHS = W + W.conj().T
    Y = rc.solve_lyapunov_small(D, RHS)
    np.testing.assert_allclose(Y, Y.conj().T, atol=1e-13)
    np.testing.assert_allclose(Y @ D + D.conj().T @ Y, RHS, atol=1e-12)


# ------------------------------------------------- eigenvalue match distance

def test_eigenvalue_match_distance():
    assert eigenvalue_match_distance([1, 2j], [2j, 1]) == 0.0
    assert eigenvalue_match_distance([1.0], [1.5]) == 0.5
    assert eigenvalue_match_distance([1.0], [1.0, 2.0]) == np.inf
    assert eigenvalue_match_distance([], []) == 0.0
