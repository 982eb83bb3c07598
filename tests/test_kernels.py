"""Tests for the small dense kernels."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
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
    np.testing.assert_array_equal(kn.cholesky_upper(np.array([[4.0]])), [[2.0]])


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


# pivot 1 is about 1e-14 > 0, under the 1e-13 relative floor; in the second
# matrix potrf accepts it and rejects pivot 2, but the rule rejects pivot 1
@pytest.mark.parametrize("M", [[[1.0, 1.0], [1.0, 1.0 + 1e-14]],
                               np.diag([1.0, 1e-14, -1.0])])
def test_cholesky_reports_first_tiny_pivot(M):
    with pytest.raises(NotPositiveDefiniteError) as exc:
        kn.cholesky_upper(np.array(M))
    assert exc.value.pivot == 1


def test_cholesky_pivot_rule_is_scale_free():
    matrices = [np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]]),
                np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
                np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
                np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, -1.0]),
                np.diag([1.0, 1e-14, -1.0]), np.diag([1e-3, 1.0, 1e-15])]
    for M in matrices:
        decisions = []
        for s in (1.0, 1e-15):
            try:
                kn.cholesky_upper(s * M)
                decisions.append(None)
            except NotPositiveDefiniteError as exc:
                decisions.append(exc.pivot)
        assert decisions[0] == decisions[1], M


@pytest.mark.parametrize("M", [[[1.0, np.nan], [np.nan, 1.0]],
                               [[np.nan, 0.0], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, np.nan]]])
def test_cholesky_nan_gram_raises(M):
    with pytest.raises(NotPositiveDefiniteError):
        kn.cholesky_upper(np.array(M))


def row_loop_pivots(M):
    """Reference: the row-by-row Cholesky loop and its pivot rule.

    Returns (first rejected pivot or None, the rule's floor
    1e-13 max |diag M|).
    """
    M = hermitian_part(np.atleast_2d(M))
    k = M.shape[0]
    G = np.zeros((k, k), dtype=np.result_type(M.dtype, np.float64))
    floor = 1e-13 * float(np.max(np.abs(np.diag(M))))
    for i in range(k):
        d = M[i, i].real - np.vdot(G[:i, i], G[:i, i]).real
        if d <= floor or d <= 0.0:
            return i, floor
        G[i, i] = np.sqrt(d)
        G[i, i + 1:] = (M[i, i + 1:] - G[:i, i].conj() @ G[:i, i + 1:]) / G[i, i]
    return None, floor


def exact_pivots(M):
    """The pivots of hermitian_part(M) in exact arithmetic, up to the first
    zero, each with a first-order bound on how far it moves under a backward
    error of 4 (k + 2) u sqrt(M_ii M_jj) in entry (i, j).

    A complex M is eliminated as its real form, in which each entry is a
    2-by-2 block and each pivot comes twice. With l row j of the inverse
    unit-triangular LDL* factor, pivot j is l M l*, so the bound is
    4 (k + 2) u (sum_i |l_i| sqrt(M_ii))**2.
    """
    M = hermitian_part(np.atleast_2d(M))
    k, step = M.shape[0], 1
    if np.iscomplexobj(M):
        M = np.kron(M.real, np.eye(2)) + np.kron(M.imag, [[0, -1], [1, 0]])
        step = 2
    A = [[Fraction(x) for x in row] for row in M.tolist()]
    L = [[Fraction(int(i == j)) for j in range(len(A))] for i in range(len(A))]
    scale = np.sqrt(np.abs(np.diag(M)))
    tau = 2 * (k + 2) * np.finfo(float).eps
    pivots, spreads = [], []
    for j in range(len(A)):
        d = A[j][j]
        if j % step == 0:
            pivots.append(d)
            spreads.append(tau * float(np.abs(np.array(L[j], float)) @ scale) ** 2)
        if d == 0:
            break
        for i in range(j + 1, len(A)):
            f = A[i][j] / d
            A[i] = [a - f * b for a, b in zip(A[i], A[j])]
            L[i] = [a - f * b for a, b in zip(L[i], L[j])]
    return pivots, spreads


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans(),
       st.sampled_from([0.0, 1e-17, 1e-15, 1e-12, 1e-9]),
       st.floats(-20, 20))
def test_cholesky_pivot_rule_matches_row_loop(seed, k, complex_data, eps, log_scale):
    # Grams F F* + eps I of rank-deficient F, with a random diagonal scaling,
    # sit near the rule's floor. LAPACK and the loop round differently, so a
    # draw is skipped when a pivot up to the decided one lies within twice
    # its rounding bound of the floor; about 3% are
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, k + 1))
    F = rng.standard_normal((k, r))
    if complex_data:
        F = F + 1j * rng.standard_normal((k, r))
    S = np.diag(10.0 ** rng.uniform(-3, 3, k))
    M = 10.0 ** log_scale * (S @ (F @ F.conj().T + eps * np.eye(k)) @ S)
    expected, floor = row_loop_pivots(M)
    pivots, spreads = exact_pivots(M)
    decided = [abs(float(d - Fraction(floor))) > 2 * e for d, e in zip(pivots, spreads)]
    assume(all(decided[:len(pivots) if expected is None else expected + 1]))
    try:
        G = kn.cholesky_upper(M)
        got = None
    except NotPositiveDefiniteError as exc:
        got = exc.pivot
    assert got == expected
    if got is None:
        np.testing.assert_allclose(G.conj().T @ G, hermitian_part(M),
                                   atol=1e-12 * np.abs(M).max())


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


# --------------------------------------------------------- orthonormal_basis

# (n, q, window): the window is the last min(window, q) columns of an n-by-q
# block, as projected_hamiltonian takes it from Z; the last block has fewer
# columns than its window
@pytest.mark.parametrize("n, q, window", [(3000, 18, 18), (300, 4, 4),
                                          (300, 5, 18)])
@pytest.mark.parametrize("complex_", [False, True])
def test_orthonormal_basis_equals_numpy_qr(n, q, window, complex_):
    rng = np.random.default_rng(q)
    Z = rng.standard_normal((n, q))
    if complex_:
        Z = Z + 1j * rng.standard_normal((n, q))
    M = Z[:, max(q - window, 0):]
    Q = kn.orthonormal_basis(M)
    assert Q.shape == (n, q) and Q.dtype == Z.dtype
    np.testing.assert_array_equal(Q, np.linalg.qr(M)[0])


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
    Y = kn.solve_sylvester_small(np.array([[1.0]]), np.array([[2.0]]),
                                 np.array([[3.0]]))
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
        kn.solve_sylvester_small(Hm, np.array([[-1.0 + 2.0j]]), np.ones((2, 1)))


def test_sylvester_singular_operator():
    # Hc = -D: spectra of -Hc and D coincide
    with pytest.raises(SylvesterSingularError):
        kn.solve_sylvester_small(np.array([[-2.0]]), np.array([[2.0]]),
                                 np.array([[1.0]]))


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
    Y = kn.solve_lyapunov_small(np.array([[1.0]]), np.array([[1.25]]))
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


@pytest.mark.parametrize("pivots, singular", [
    ([1.0, np.nan], True), ([np.nan], True), ([np.nan, 1.0], True),
    ([0.0, 0.0], True), ([], False), ([2.0, -1.0, 0.5j], False)])
def test_singular_pivots_nan_is_singular(pivots, singular):
    # a NaN pivot used to pass as regular: the rule read min |d| <= tol,
    # and a comparison with NaN is False
    assert kn.singular_pivots(np.array(pivots)) is singular
