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
import ricadi.shifts as shifts_mod
from conftest import fem1d_pair, random_problem, stable_sparse
from ricadi.errors import ShiftStrategyError, SingularShiftError, SMWSingularError
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


def test_factorize_singular_shift():
    # mu in the spectrum of A*, on the dense and on the SuperLU branch; the
    # error carries the shift that failed
    for n in (2, shifted_mod.DENSE_LU_BELOW_N + 100):
        A = sp.diags(np.r_[1.0, -2.0 * np.ones(n - 1)], format="csr")
        with pytest.raises(SingularShiftError) as exc:
            factorize(A, mu=1.0)
        assert exc.value.shift == 1.0


@pytest.mark.parametrize("n", [60, 600])
def test_factorize_non_finite_matrix_is_a_singular_shift(n):
    # a NaN used to reach the dense branch's caller as scipy's ValueError
    # while the SuperLU branch raised SingularShiftError
    A = sp.lil_matrix(stable_sparse(n, 5, density=0.01))
    A[3, 3] = np.nan
    mu = 1.5 + 0.5j
    with pytest.raises(SingularShiftError,
                       match=r"singular for mu = \(1\.5\+0\.5j\): ") as exc:
        factorize(A.tocsr(), mu=mu)
    assert exc.value.shift == mu


@pytest.mark.parametrize("n", [60, 600])
def test_factor_e_non_finite_is_a_singular_e(n):
    # dense LU refuses an infinite entry; SuperLU factors it, and the pivot
    # check rejects the factor
    E = sp.lil_matrix(fem1d_pair(n)[1])
    E[0, 0] = np.inf
    with pytest.raises(ShiftStrategyError, match="mass matrix E is singular"):
        shifts_mod.factor_e(E.tocsr())


def test_factorize_generalized():
    A = sp.csr_matrix(np.array([[-2.0]]))
    E = sp.csr_matrix(np.array([[2.0]]))
    f = factorize(A, E, mu=1.0)
    np.testing.assert_allclose(solve_factored(f, np.array([[1.0]])), [[-0.25]])


def test_factorize_conjugates_a():
    A = sp.csr_matrix(np.array([[-1.0 + 1.0j]]))
    f = factorize(A, mu=2.0)
    # A* - 2 = -3 - 1j
    np.testing.assert_allclose(solve_factored(f, np.array([[1.0]])),
                               [[1.0 / (-3 - 1j)]], atol=1e-15)


def _shifted_pair(A, E, mu):
    M = A.toarray().T - mu * (np.eye(A.shape[0]) if E is None else E.toarray().T)
    return factorize(A, E, mu), M


def _e_pair(E):
    return shifts_mod.factor_e(E), (E.toarray() if sp.issparse(E) else E)


def _system_pair(A, E, mu):
    _, M = _shifted_pair(A, E, mu)
    return factorize(A, E, mu, shifted_mod.ShiftedSystem(A, E)), M


# Every producer of a Factor, each with the real matrix its factor solves with:
# factorize and factor_e each on their dense (n < 500) and SuperLU branches,
# factorize also from a system made beforehand, factor_e also on a dense E.
FACTOR_PRODUCERS = {
    "factorize-n40": lambda: _shifted_pair(
        *_pair(random_problem(44, n=40, generalized=True)), 1.5),
    "factorize-n600": lambda: _shifted_pair(
        stable_sparse(600, 5, density=0.01), None, 2.5),
    "system-n40": lambda: _system_pair(
        *_pair(random_problem(43, n=40, generalized=True)), 1.5),
    "system-n600": lambda: _system_pair(*fem1d_pair(600), 2.5),
    "factor_e-sparse": lambda: _e_pair(random_problem(44, n=30, generalized=True).E),
    "factor_e-dense": lambda: _e_pair(
        random_problem(44, n=30, generalized=True).E.toarray()),
    "factor_e-n600": lambda: _e_pair(fem1d_pair(600)[1]),
}


def _produce(producer):
    f, M = FACTOR_PRODUCERS[producer]()
    assert isinstance(f, shifted_mod.Factor) and f.n == M.shape[0]
    # the branch its name promises: dense LU below the threshold, else SuperLU
    assert isinstance(f.lu, tuple) is (f.n < shifted_mod.DENSE_LU_BELOW_N)
    return f, M


@pytest.mark.parametrize("producer", sorted(FACTOR_PRODUCERS))
def test_solve_factored_wrong_rows(producer):
    f, _ = _produce(producer)
    with pytest.raises(ValueError, match="rows"):
        f.solve(np.zeros((f.n + 1, 1)))


@pytest.mark.parametrize("producer", sorted(FACTOR_PRODUCERS))
def test_solve_factored_zero_rhs(producer):
    f, _ = _produce(producer)
    np.testing.assert_array_equal(f.solve(np.zeros((f.n, 2))),
                                  np.zeros((f.n, 2)))
    for dtype in (np.float64, np.complex128):
        empty = f.solve(np.zeros((f.n, 0), dtype=dtype))
        assert empty.shape == (f.n, 0) and empty.dtype == dtype


@pytest.mark.parametrize("producer", sorted(FACTOR_PRODUCERS))
def test_real_e_factor_solves_complex_block(producer):
    # a complex block reaches a real factor with complex data and a real E,
    # and after a complex shift on a state stored in complex form
    f, M = _produce(producer)
    assert M.dtype == np.float64
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((f.n, 3)) + 1j * rng.standard_normal((f.n, 3))
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(M, rhs),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("factor, block", [("real", "real"), ("real", "complex"),
                                           ("complex", "real")])
def test_dense_solve_is_bitwise_lu_solve(factor, block):
    # one getrs call, the one sla.lu_solve makes: zgetrs for a complex block
    # on a real factor, on the real factor's entries cast to complex
    f = factorize(random_problem(45, n=40).A,
                  mu=1.5 if factor == "real" else 1.5 + 0.7j)
    assert isinstance(f.lu, tuple) and np.iscomplexobj(f.lu[0]) is (factor == "complex")
    rng = np.random.default_rng(6)
    RHS = rng.standard_normal((40, 3))
    if block == "complex":
        RHS = RHS + 1j * rng.standard_normal((40, 3))
    W = f.solve(RHS)
    ref = sla.lu_solve(f.lu, RHS.astype(np.result_type(RHS, f.dtype)))
    assert (W.dtype, W.shape) == (ref.dtype, ref.shape)
    assert W.tobytes() == ref.tobytes()


@pytest.mark.parametrize("producer", sorted(FACTOR_PRODUCERS))
def test_nan_column_is_solved_alike_on_both_branches(producer):
    # neither branch scans a block for non-finite entries (its matrix was
    # checked when it was factored): a NaN stays in its own column
    f, M = _produce(producer)
    rng = np.random.default_rng(7)
    RHS = rng.standard_normal((f.n, 3))
    RHS[f.n // 2, 1] = np.nan
    W = f.solve(RHS)
    assert not np.isfinite(W[:, 1]).all()
    np.testing.assert_allclose(W[:, [0, 2]], np.linalg.solve(M, RHS[:, [0, 2]]),
                               rtol=1e-10, atol=1e-12)


def test_dense_solve_illegal_argument_is_a_value_error(monkeypatch):
    # a negative info from getrs names the argument LAPACK rejected
    f = factorize(random_problem(46, n=12).A, mu=1.5)
    monkeypatch.setattr(shifted_mod.sla, "get_lapack_funcs",
                        lambda names, arrays: (lambda *a, **k: (None, -3),))
    with pytest.raises(ValueError, match="argument 3 of LAPACK getrs"):
        f.solve(np.ones((12, 1)))


def test_solve_factored_scalar_pipeline():
    f = factorize(sp.csr_matrix(np.array([[-1.0]])), mu=1.0)
    np.testing.assert_allclose(solve_factored(f, np.array([[1.0]])), [[-0.5]])


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


SUPERLU_SETTINGS = {"relax": shifted_mod.SUPERLU_RELAX,
                    "panel_size": shifted_mod.SUPERLU_PANEL_SIZE}


def test_sparse_ordering_is_minimum_degree_on_a_plus_at(monkeypatch):
    # The system orders the pencil's pattern once, by SuperLU's minimum
    # degree on its symmetrized pattern (less fill than its COLAMD default
    # on stencil operators): the order splu takes of the shifted matrix
    # itself, whatever the shift. Every factor is then NATURAL on the held
    # order, with the module's supernode and panel sizes.
    A = _laplacian_2d(24)
    calls = []

    def spy(name):
        def called(M, **kwargs):
            calls.append((kwargs, getattr(spla, name)(M, **kwargs)))
            return calls[-1][1]
        return called

    monkeypatch.setattr(shifted_mod, "spla",
                        SimpleNamespace(splu=spy("splu"), spilu=spy("spilu")))
    system = shifted_mod.ShiftedSystem(A)
    mus = (3.0, 40.0 + 5.0j, 900.0)
    factors = [factorize(A, None, mu, system) for mu in mus]
    assert A.shape[0] >= shifted_mod.DENSE_LU_BELOW_N
    assert [kw.get("permc_spec") for kw, _ in calls].count("MMD_AT_PLUS_A") == 1
    perm_c = calls[0][1].perm_c
    for mu in mus:
        per_shift = spla.splu(_scipy_difference(A, None, mu),
                              permc_spec="MMD_AT_PLUS_A", **SUPERLU_SETTINGS)
        assert np.array_equal(per_shift.perm_c, perm_c)
    np.testing.assert_array_equal(system.perm, np.argsort(perm_c))
    assert ([kw for kw, _ in calls[1:]]
            == [{"permc_spec": "NATURAL", **SUPERLU_SETTINGS}] * len(mus))
    rhs = np.random.default_rng(4).standard_normal((A.shape[0], 2))
    for mu, f in zip(mus, factors):
        dense = A.toarray().T - mu * np.eye(A.shape[0])
        np.testing.assert_allclose(solve_factored(f, rhs),
                                   np.linalg.solve(dense, rhs), atol=1e-9)


def test_factor_e_uses_the_same_superlu_settings(monkeypatch):
    # E's factor keeps SuperLU's default ordering but takes the same
    # supernode and panel sizes, through shifts' own spla
    seen = []

    def spy(M, **kwargs):
        seen.append(kwargs)
        return spla.splu(M, **kwargs)

    monkeypatch.setattr(shifts_mod, "spla", SimpleNamespace(splu=spy))
    shifts_mod.factor_e(fem1d_pair(600)[1])
    assert seen == [SUPERLU_SETTINGS]


def test_superlu_settings_stay_in_the_safe_range():
    # panel_size 24 and 32 aborted or segfaulted on the cd2d operator, for
    # 16 relax values, one process per pair; with every pair in one process
    # the crash came only after the last factor had returned (heap
    # corruption). panel_size <= 20 never crashed, for relax 1 to 24.
    assert 1 <= shifted_mod.SUPERLU_RELAX <= shifted_mod.SUPERLU_PANEL_SIZE <= 20


def _laplacian_3d(grid):
    T = sp.diags([np.ones(grid - 1), -2.0 * np.ones(grid), np.ones(grid - 1)],
                 [-1, 0, 1])
    I = sp.identity(grid)
    return (sp.kron(sp.kron(I, I), T) + sp.kron(sp.kron(I, T), I)
            + sp.kron(sp.kron(T, I), I)).tocsr()


@pytest.mark.parametrize("A", [_laplacian_3d(10), _laplacian_2d(24)],
                         ids=["laplacian-3d-10", "laplacian-2d-24"])
def test_superlu_factor_stores_fewer_entries_than_the_default(A):
    # scipy's default relax = 10 pads relaxed supernodes with zeros: the
    # 3-D case stores 170,216 entries by default and 67,282 at relax = 1,
    # the 2-D case 17,642 and 11,448
    M = (A.T - 3.0 * sp.identity(A.shape[0])).tocsc()
    default = spla.splu(M, permc_spec="MMD_AT_PLUS_A")
    f = factorize(A, mu=3.0)
    assert A.shape[0] >= shifted_mod.DENSE_LU_BELOW_N
    assert f.lu.nnz < default.nnz


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
    got = smw_solve(f, np.array([[0.4]]), np.array([[1.0]]), np.array([[0.2]]))
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


def test_smw_singular_capacitance():
    # A* - mu = -2 I; with K = -2 e1, B = e1 the capacitance 1 - B*N
    # vanishes, whether A* - mu is factored densely or by SuperLU
    for n in (1, shifted_mod.DENSE_LU_BELOW_N + 100):
        f = factorize(-sp.identity(n, format="csr"), mu=1.0)
        e1 = np.eye(n, 1)
        with pytest.raises(SMWSingularError) as exc:
            smw_solve(f, -2.0 * e1, e1, np.ones((n, 1)))
        assert exc.value.shift == 1.0


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


def _keys(M):
    """Column-major positions of a CSC matrix's stored entries, zeros included."""
    cols = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    return cols * M.shape[0] + M.indices.astype(np.int64)


def _assert_held_scipy_difference(M, perm, A, E, mu):
    """M, formed on a system's held pattern, is scipy's A* - mu E* once
    un-permuted: bitwise at the difference's entries, and exactly 0 at the
    rest of pattern(A*) | pattern(E*) (of the identity when E is None)."""
    n = A.shape[0]
    want = _scipy_difference(A, E, mu)
    M = M.tocoo()
    got = sp.csc_matrix((M.data, (perm[M.row], perm[M.col])), shape=(n, n))
    Eh = sp.identity(n, format="csc") if E is None else E.conj().T.tocsc()
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(
        _keys(got), np.union1d(_keys(A.conj().T.tocsc()), _keys(Eh)))
    at = np.searchsorted(_keys(got), _keys(want))
    np.testing.assert_array_equal(_keys(got)[at], _keys(want))
    assert got.data[at].tobytes() == want.data.tobytes()
    rest = np.ones(got.nnz, dtype=bool)
    rest[at] = False
    assert rest.sum() == got.nnz - want.nnz and not got.data[rest].any()


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_factorize_matrix_is_bitwise_the_scipy_difference(monkeypatch, case):
    # the dense matrix is bitwise scipy's; the sparse one is on the
    # system's fixed pattern, permuted, with cancelled and stored zeros kept
    A, E = PENCIL_CASES[case]()
    system = shifted_mod.ShiftedSystem(A, E)
    seen = []
    dense_lu = shifted_mod.dense_lu

    def spy(M, *args, **kwargs):
        seen.append(M.copy())
        return (spla.splu if sp.issparse(M) else dense_lu)(M, *args, **kwargs)

    monkeypatch.setattr(shifted_mod, "spla", SimpleNamespace(splu=spy))
    monkeypatch.setattr(shifted_mod, "dense_lu", spy)
    mus = (2.5, 1.5 + 0.75j, 2.5)
    for mu in mus:
        factorize(A, E, mu, system)
    assert len(seen) == len(mus)
    for mu, M in zip(mus, seen):
        mu = mu.real if complex(mu).imag == 0 else mu
        if sp.issparse(M):
            _assert_held_scipy_difference(M, system.perm, A, E, mu)
        else:
            want = _scipy_difference(A, E, mu)
            assert M.dtype == want.dtype and M.tobytes() == want.tobytes()


# The per-shift MMD_AT_PLUS_A factor's fill, which the held order must
# reproduce: on a stencil, a pencil with E and a complex one.
FILL_CASES = {
    "laplacian-2d-24": lambda: (_laplacian_2d(24), None),
    "fem1d-600": lambda: fem1d_pair(600),
    "complex": PENCIL_CASES["complex"],
}


@pytest.mark.parametrize("case", sorted(FILL_CASES))
def test_held_order_fills_as_ordering_each_shift(case):
    # the held pattern is permuted by the inverse of perm_c; permuting by
    # perm_c itself stores 3.1M entries instead of 221k on cd2d
    A, E = FILL_CASES[case]()
    system = shifted_mod.ShiftedSystem(A, E)
    for mu in (2.5, 1.5 + 0.75j, 1e3):
        f = factorize(A, E, mu, system)
        per_shift = spla.splu(_scipy_difference(A, E, mu),
                              permc_spec="MMD_AT_PLUS_A", **SUPERLU_SETTINGS)
        assert f.lu.nnz == per_shift.nnz


def test_system_orders_a_pencil_that_is_singular_at_one():
    # A* - E* = 0: a stand-in with the pencil's values at mu = 1 could not
    # be ordered; the pattern's is nonsingular, so the system is built and
    # only that shift's factor fails, with its shift
    E = fem1d_pair(600)[1]
    A = E.copy()
    system = shifted_mod.ShiftedSystem(A, E)
    with pytest.raises(SingularShiftError) as exc:
        factorize(A, E, 1.0, system)
    assert exc.value.shift == 1.0
    f = factorize(A, E, -1.0, system)
    rhs = np.ones((600, 1))
    np.testing.assert_allclose(2.0 * E.toarray() @ f.solve(rhs), rhs, atol=1e-10)


def test_parallel_batch_is_factored_in_the_pool(monkeypatch):
    spans = []
    original = shifted_mod.factorize

    def recording(*args):
        spans.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(shifted_mod, "factorize", recording)
    prob = random_problem(50, n=40, m=1, p=1)
    rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2, parallel_width=2),
             [1.0, 2.0, 4.0, 8.0])
    assert len(spans) == 4 and threading.get_ident() not in spans


def _snapshot(M):
    """The bytes of a dense or sparse matrix (None for None)."""
    if M is None:
        return None
    if sp.issparse(M):
        return tuple(getattr(M, a).tobytes() for a in ("data", "indices", "indptr"))
    return M.tobytes()


def _with_duplicate(A):
    """A in non-canonical CSR: its first stored entry split into two halves."""
    A = sp.csr_matrix(A)
    data = np.r_[A.data[:1] / 2, A.data[:1] / 2, A.data[1:]]
    indptr = A.indptr + (np.arange(A.shape[0] + 1) > 0)
    return sp.csr_matrix((data, np.r_[A.indices[:1], A.indices], indptr),
                         shape=A.shape)


INPLACE_CASES = {
    "n60": lambda: (random_problem(49, n=60).A, None),
    "n60-E": lambda: _pair(random_problem(49, n=60, generalized=True)),
    "n60-dense-E": lambda: (random_problem(49, n=60).A.toarray(),
                            random_problem(49, n=60, generalized=True).E.toarray()),
    "n600": lambda: (stable_sparse(600, 5, density=0.01), None),
    "n600-E": lambda: fem1d_pair(600),
    "n600-duplicate": lambda: (_with_duplicate(stable_sparse(600, 5, 0.01)), None),
}


@pytest.mark.parametrize("case", sorted(INPLACE_CASES))
def test_factorize_leaves_the_operators_intact(case):
    # the dense shifted matrix is factored in place, never an input or the
    # system's held A* and E*; building the system leaves the inputs intact
    # too (a non-canonical input is summed in a copy)
    A, E = INPLACE_CASES[case]()
    inputs = [_snapshot(M) for M in (A, E)]
    system = shifted_mod.ShiftedSystem(A, E)
    before = inputs + [_snapshot(M) for M in (system.Ah, system.Eh)]
    rhs = np.random.default_rng(6).standard_normal((A.shape[0], 2))
    for mu in (2.5, 1.5 + 0.75j):
        f = factorize(A, E, mu, system)
        M = _scipy_difference(sp.csr_matrix(A),
                              None if E is None else sp.csr_matrix(E), mu)
        np.testing.assert_allclose(M @ f.solve(rhs), rhs, atol=1e-8)
        factorize(A, E, mu)  # a throwaway system
    assert [_snapshot(M) for M in (A, E, system.Ah, system.Eh)] == before


def test_dense_factor_overwrites_the_matrix_the_system_formed():
    # getrf skips its wrapper's copy only for a Fortran-ordered array of the
    # factor's dtype; a C-ordered one would be copied without notice
    A, E = _pair(random_problem(49, n=60, generalized=True))
    for E_ in (E, None):
        system = shifted_mod.ShiftedSystem(A, E_)
        formed = []
        matrix = system.matrix
        system.matrix = lambda mu: formed.append(matrix(mu)) or formed[-1]
        for mu in (2.5, 1.5 + 0.75j):
            f = factorize(A, E_, mu, system)
            M = formed[-1]
            assert M.flags.f_contiguous and M.dtype == f.lu[0].dtype
            assert np.shares_memory(f.lu[0], M)


@pytest.mark.parametrize("order", ["C", "F"])
def test_factor_e_copies_a_dense_e(order):
    # LAPACK would factor a Fortran-ordered E in place if allowed to
    E = random_problem(49, n=60, generalized=True).E.toarray(order=order)
    before = E.tobytes()
    f = shifts_mod.factor_e(E)
    assert E.tobytes() == before
    assert not np.shares_memory(f.lu[0], E)


def test_parallel_solve_shares_one_system_between_threads(monkeypatch):
    # n = 600: SuperLU factors made on two pool threads from one held pencil
    A, E = fem1d_pair(600)
    rng = np.random.default_rng(7)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((600, 1)),
                          C=rng.standard_normal((2, 600)), E=E)
    shifts = [1.0, 2.0 + 1.0j, 40.0, 300.0, 900.0, 5e3]
    formed = []
    matrix = shifted_mod.ShiftedSystem.matrix

    def recording(system, mu):
        M = matrix(system, mu)
        formed.append((mu, M.copy(), system.perm))
        return M

    monkeypatch.setattr(shifted_mod.ShiftedSystem, "matrix", recording)
    options = rc.SolverOptions(tol=1e-280, max_iter=3, parallel_width=2)
    first = rc.solve(prob, options, shifts)
    assert len(formed) == 6
    assert [r.kind for r in first.records] == ["realified", "parallel", "parallel"]
    again = rc.solve(prob, options, shifts)
    for name in ("Z", "R"):
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    for mu, M, perm in formed:
        _assert_held_scipy_difference(M, perm, A, E, mu)
