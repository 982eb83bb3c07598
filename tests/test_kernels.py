"""Tests for the small dense kernels."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ricadi import kernels as kn
from ricadi.errors import NotPositiveDefiniteError, SylvesterSingularError
from ricadi.kernels import hermitian_part


def kron_sylvester(Hc, D, RHS):
    """Oracle: solve Y D + Hc Y = RHS by Kronecker vectorization.

    The kernel solves Hm* Y + Y D = RHS, so tests pass Hc = Hm*.
    """
    q, t = Hc.shape[0], D.shape[0]
    K = np.kron(np.eye(t), Hc) + np.kron(D.T, np.eye(q))
    y = np.linalg.solve(K, np.asarray(RHS).reshape(q * t, order="F"))
    return y.reshape(q, t, order="F")


def schur_form(M):
    """Upper quasi-triangular Schur form of M: real for real M, else complex."""
    return sla.schur(M, output="real" if np.isrealobj(M) else "complex")[0]


# ---------------------------------------------------------------- cholesky

def test_cholesky_identity():
    np.testing.assert_array_equal(kn.cholesky_upper(np.eye(2)), np.eye(2))


def test_cholesky_scalar():
    np.testing.assert_array_equal(kn.cholesky_upper([[4.0]]), [[2.0]])


def test_cholesky_multiply_back():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    G = kn.cholesky_upper(M)
    assert np.allclose(np.triu(G), G)  # upper triangular
    assert np.all(np.diag(G) > 0)
    np.testing.assert_allclose(G.conj().T @ G, M, atol=1e-14)


def test_cholesky_complex_hermitian():
    M = np.array([[2.0, 1j], [-1j, 3.0]])
    G = kn.cholesky_upper(M)
    assert np.allclose(np.imag(np.diag(G)), 0)
    np.testing.assert_allclose(G.conj().T @ G, M, atol=1e-14)


def test_cholesky_not_positive_definite():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        kn.cholesky_upper(np.diag([1.0, -1.0]))
    assert exc.value.pivot == 1


def test_cholesky_near_singular():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    with pytest.raises(NotPositiveDefiniteError):
        kn.cholesky_upper(M)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
def test_cholesky_random_spd(seed, k, complex_data):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((k, k))
    if complex_data:
        F = F + 1j * rng.standard_normal((k, k))
    M = F.conj().T @ F + 0.1 * np.eye(k)
    G = kn.cholesky_upper(M)
    np.testing.assert_allclose(G.conj().T @ G, hermitian_part(M),
                               atol=1e-12 * np.linalg.norm(M))


# -------------------------------------------------------- spectral_norm_gram

def test_gram_norm_canonical_column():
    e1 = np.zeros((7, 1))
    e1[0, 0] = 1.0
    assert kn.spectral_norm_gram(e1) == 1.0


def test_gram_norm_zero():
    assert kn.spectral_norm_gram(np.zeros((5, 2))) == 0.0
    assert kn.spectral_norm_gram(np.zeros((5, 0))) == 0.0


def test_gram_norm_matches_svd():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((50, 3))
    want = np.linalg.svd(R, compute_uv=False)[0] ** 2
    assert abs(kn.spectral_norm_gram(R) - want) <= 1e-12 * want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4))
def test_gram_norm_random(seed, n, p):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    want = np.linalg.norm(R @ R.conj().T, 2)
    assert abs(kn.spectral_norm_gram(R) - want) <= 1e-11 * max(want, 1.0)


# ------------------------------------------------------------- sylvester

def test_sylvester_scalar():
    Y = kn.solve_sylvester_small([[1.0]], [[2.0]], [[3.0]])
    np.testing.assert_allclose(Y, [[1.0]])


def test_sylvester_zero_rhs():
    Y = kn.solve_sylvester_small(np.eye(3), 2 * np.eye(2), np.zeros((3, 2)))
    np.testing.assert_array_equal(Y, np.zeros((3, 2)))


def test_sylvester_empty():
    Y = kn.solve_sylvester_small(np.zeros((0, 0)), np.eye(2),
                                 np.zeros((0, 2)))
    assert Y.shape == (0, 2)


def test_sylvester_random_vs_kron():
    rng = np.random.default_rng(2)
    Hm = schur_form(rng.standard_normal((4, 4)) + 4 * np.eye(4))
    D = schur_form(rng.standard_normal((2, 2)) + 4 * np.eye(2))
    RHS = rng.standard_normal((4, 2))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.T, D, RHS), atol=1e-12)


def test_sylvester_real_stays_real_with_complex_d_spectrum():
    # D has eigenvalues 1 +/- 1j; the result must be real for real data
    Hm = np.diag([2.0, 3.0, 4.0])
    D = np.array([[1.0, 1.0], [-1.0, 1.0]])
    rng = np.random.default_rng(3)
    RHS = rng.standard_normal((3, 2))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    assert not np.iscomplexobj(Y)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.T, D, RHS), atol=1e-12)


def test_sylvester_real_quasi_triangular_blocks():
    # 2-by-2 blocks (complex eigenvalue pairs) on the diagonals of Hm and D
    rng = np.random.default_rng(7)
    Hm = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
    Hm[1, 0], Hm[0, 1] = 1.5, -abs(Hm[0, 1]) - 1.0
    Hm[4, 3], Hm[3, 4] = 0.7, -abs(Hm[3, 4]) - 1.0
    D = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3)
    D[2, 1], D[1, 2] = 2.0, -abs(D[1, 2]) - 1.0
    assert np.sum(np.linalg.eigvals(Hm).imag != 0) == 4
    assert np.sum(np.linalg.eigvals(D).imag != 0) == 2
    RHS = rng.standard_normal((5, 3))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    assert not np.iscomplexobj(Y)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.T, D, RHS), atol=1e-12)


def test_sylvester_triangular_fast_path():
    rng = np.random.default_rng(4)
    Hm = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
    D = schur_form(rng.standard_normal((3, 3)) + 5 * np.eye(3))
    RHS = rng.standard_normal((5, 3))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.T, D, RHS), atol=1e-12)


def test_sylvester_complex_vs_kron():
    rng = np.random.default_rng(5)
    Hm = schur_form(rng.standard_normal((3, 3))
                    + 1j * rng.standard_normal((3, 3)) + 4 * np.eye(3))
    D = schur_form(rng.standard_normal((2, 2))
                   + 1j * rng.standard_normal((2, 2)) + 4 * np.eye(2))
    RHS = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.conj().T, D, RHS),
                               atol=1e-12)


def test_sylvester_complex_data_with_real_2x2_blocks():
    # a realified pair's 2-by-2 block exists only on real data; complex trsyl
    # reads only the upper triangle, so complex data with one is refused
    rng = np.random.default_rng(8)
    Hm = np.triu(rng.standard_normal((4, 4))) + 3 * np.eye(4)
    Hm[1, 0], Hm[0, 1] = 1.0, -1.0
    D = np.array([[2.0, 1.0, 0.5], [-1.0, 2.0, 0.3], [0.0, 0.0, 1.0]])
    RHS = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for args in ((Hm, D, RHS), (Hm, np.triu(D), RHS), (np.triu(Hm), D, RHS),
                 (Hm.astype(complex), D, RHS.real)):
        with pytest.raises(ValueError, match="upper triangular"):
            kn.solve_sylvester_small(*args)
    with pytest.raises(ValueError, match="upper triangular"):
        kn.solve_lyapunov_small(D.astype(complex), np.eye(3))
    # real data with the same blocks is solved
    Y = kn.solve_sylvester_small(Hm, D, RHS.real)
    np.testing.assert_allclose(Y, kron_sylvester(Hm.T, D, RHS.real), atol=1e-12)


def test_sylvester_singular_operator_complex_data():
    # Hm* has the eigenvalue 1 - 2i; D = -(1 - 2i) meets it
    Hm = np.array([[1.0 + 2.0j, 0.5], [0.0, 3.0]])
    with pytest.raises(SylvesterSingularError):
        kn.solve_sylvester_small(Hm, [[-1.0 + 2.0j]], np.ones((2, 1)))


def test_sylvester_singular_operator():
    # Hc = -D: spectra of -Hc and D coincide
    with pytest.raises(SylvesterSingularError):
        kn.solve_sylvester_small([[-2.0]], [[2.0]], [[1.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_sylvester_random_property(seed, q, t):
    rng = np.random.default_rng(seed)
    Hm = schur_form(rng.standard_normal((q, q)) + (q + t) * np.eye(q))
    D = schur_form(rng.standard_normal((t, t)) + (q + t) * np.eye(t))
    RHS = rng.standard_normal((q, t))
    Y = kn.solve_sylvester_small(Hm, D, RHS)
    np.testing.assert_allclose(Hm.T @ Y + Y @ D, RHS,
                               atol=1e-10 * max(np.linalg.norm(RHS), 1.0))


# -------------------------------------------------------------- lyapunov

def test_lyapunov_scalar_hand_value():
    Y = kn.solve_lyapunov_small([[1.0]], [[1.25]])
    np.testing.assert_allclose(Y, [[0.625]])


def test_lyapunov_identity_case():
    np.testing.assert_allclose(
        kn.solve_lyapunov_small(np.eye(3), 2 * np.eye(3)), np.eye(3),
        atol=1e-14)


def test_lyapunov_realified_block():
    D = np.array([[1.0, 1.0], [-1.0, 1.0]])
    RHS = np.eye(2)
    Y = kn.solve_lyapunov_small(D, RHS)
    assert not np.iscomplexobj(Y)
    np.testing.assert_allclose(Y @ D + D.conj().T @ Y, RHS, atol=1e-12)
    np.testing.assert_allclose(Y, Y.conj().T, atol=1e-14)


def test_lyapunov_hermitian_output():
    rng = np.random.default_rng(6)
    D = schur_form(rng.standard_normal((3, 3))
                   + 1j * rng.standard_normal((3, 3)) + 4 * np.eye(3))
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    RHS = W + W.conj().T
    Y = kn.solve_lyapunov_small(D, RHS)
    np.testing.assert_allclose(Y, Y.conj().T, atol=1e-13)
    np.testing.assert_allclose(Y @ D + D.conj().T @ Y, RHS, atol=1e-12)


# -------------------------------------------------------- singular pivots

@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
def test_singular_pivots_is_scale_free(scale):
    assert not kn.singular_pivots(scale * np.array([1.0, -3.0, 0.5j]))
    assert kn.singular_pivots(scale * np.array([1.0, 1e-15]))


def test_singular_pivots_all_zero_and_empty():
    assert kn.singular_pivots(np.zeros(3))
    assert not kn.singular_pivots(np.zeros(0))
