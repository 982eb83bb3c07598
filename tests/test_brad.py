"""Tests for the BRAD state: expansion, absorption, invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
from conftest import assert_invariants, dense_x, random_problem, rel2, \
    scalar_problem
from ricadi.errors import ExpansionDegenerateError


def scalar_state_after_step1():
    prob = scalar_problem()
    state = rc.init_state(prob)
    block = rc.expand_simple(state, prob, 1.0)
    return prob, rc.absorb_r2adi(state, prob, block)


# ------------------------------------------------------------- init_state

def test_init_state_scalar():
    prob = scalar_problem()
    state = rc.init_state(prob)
    np.testing.assert_array_equal(state.R, [[1.0]])
    np.testing.assert_array_equal(state.K, [[0.0]])
    assert state.q == 0


def test_init_state_wide_c():
    prob = random_problem(30, n=10, m=1, p=2)
    state = rc.init_state(prob)
    assert state.R.shape == (10, 2)
    np.testing.assert_allclose(state.R, prob.C.conj().T)


def test_init_state_invariants_vacuous():
    prob = random_problem(31, n=10, m=2, p=1)
    checks = rc.brad_residual_check(rc.init_state(prob), prob)
    assert all(v == 0.0 for v in checks.values())


# ----------------------------------------------------------- expand_simple

def test_expand_simple_scalar():
    prob = scalar_problem()
    block = rc.expand_simple(rc.init_state(prob), prob, 1.0)
    np.testing.assert_allclose(block.Ztil, [[-0.5]])
    np.testing.assert_array_equal(block.U1, [[1.0]])
    assert block.U2.shape == (0, 1)
    np.testing.assert_array_equal(block.D, [[1.0]])
    assert block.poles == [1 + 0j]


def test_expand_simple_converged_residual():
    prob = scalar_problem()
    state = rc.init_state(prob)
    state.R = np.zeros((1, 1))
    block = rc.expand_simple(state, prob, 1.0)
    np.testing.assert_array_equal(block.Ztil, [[0.0]])


def test_expand_simple_generalized():
    A = sp.csr_matrix(np.array([[-2.0]]))
    E = sp.csr_matrix(np.array([[2.0]]))
    prob = rc.ProblemSpec(A=A, B=np.array([[1.0]]), C=np.array([[1.0]]),
                          E=E)
    block = rc.expand_simple(rc.init_state(prob), prob, 1.0)
    np.testing.assert_allclose(block.Ztil, [[-0.25]])


def test_expand_simple_rejects_left_half_plane_shift():
    prob = scalar_problem()
    for bad, match in ((-1.0, "real part must be positive"),
                       (np.inf, "must be finite"),
                       (complex(1.0, np.nan), "must be finite")):
        with pytest.raises(ValueError, match=match):
            rc.expand_simple(rc.init_state(prob), prob, bad)


# --------------------------------------------------------- expand_parallel

def test_expand_parallel_degenerate_batch():
    prob = scalar_problem()
    state = rc.init_state(prob)
    a = rc.expand_parallel(state, prob, [1.0])
    b = rc.expand_simple(state, prob, 1.0)
    np.testing.assert_array_equal(a.Ztil, b.Ztil)
    np.testing.assert_array_equal(a.D, b.D)


def test_expand_parallel_duplicate_shifts():
    prob = scalar_problem()
    with pytest.raises(ValueError, match="pairwise distinct"):
        rc.expand_parallel(rc.init_state(prob), prob, [1.0, 1.0])


def test_expand_parallel_scalar_two_shifts():
    prob = scalar_problem()
    block = rc.expand_parallel(rc.init_state(prob), prob, [1.0, 2.0])
    np.testing.assert_allclose(block.Ztil, [[-0.5, -1.0 / 3.0]])
    np.testing.assert_allclose(block.D, np.diag([1.0, 2.0]))
    assert block.poles == [1 + 0j, 2 + 0j]


def test_expand_parallel_matches_serial_solves():
    prob = random_problem(32, n=20, m=2, p=2)
    state = rc.init_state(prob)
    shifts = [1.0, 2.5, 4.0]
    block = rc.expand_parallel(state, prob, shifts)
    for i, mu in enumerate(shifts):
        simple = rc.expand_simple(state, prob, mu)
        np.testing.assert_allclose(block.Ztil[:, 2 * i:2 * i + 2],
                                   simple.Ztil, atol=1e-14)


def test_expansion_blocks_are_c_ordered():
    # h* is a transposed view; a Fortran-ordered U2 changes the rounding of
    # the absorption products and with it the iterates
    prob = random_problem(33, n=20, m=2, p=2)
    state = rc.init_state(prob)
    state = rc.absorb_r2adi(state, prob, rc.expand_simple(state, prob, 1.0))
    for block in (rc.expand_simple(state, prob, 2.0),
                  rc.expand_parallel(state, prob, [2.0, 3.0]),
                  rc.expand_simple(state, prob, 2.0 + 1.0j)):
        for name in ("U1", "U2", "D"):
            assert getattr(block, name).flags["C_CONTIGUOUS"], name


# -------------------------------------------------------- expand_realified

def test_expand_realified_mapping(monkeypatch):
    prob = scalar_problem()
    state = rc.init_state(prob)
    monkeypatch.setattr(
        brad, "_expansion_solve",
        lambda state, problem, mu, closed_loop: np.array([[0.3 - 0.4j]]))
    block = rc.expand_realified(state, prob, 1 + 1j)
    np.testing.assert_allclose(block.Ztil, [[0.3, -0.4]])
    np.testing.assert_array_equal(block.U1, [[1.0, 0.0]])
    np.testing.assert_array_equal(block.D, [[1.0, 1.0], [-1.0, 1.0]])
    assert block.poles == [1 + 1j, 1 - 1j]
    assert not np.iscomplexobj(block.Ztil)


def test_expand_realified_requires_complex_shift():
    prob = scalar_problem()
    with pytest.raises(ValueError, match="complex shift"):
        rc.expand_realified(rc.init_state(prob), prob, 1.0)


def test_expand_realified_requires_real_data():
    prob = random_problem(33, n=6, m=1, p=1, complex_data=True)
    with pytest.raises(ValueError, match="real data"):
        rc.expand_realified(rc.init_state(prob), prob, 1 + 1j)


def test_expand_realified_equals_complex_pair():
    prob = random_problem(34, n=25, m=2, p=2)
    mu = 1.5 + 0.8j
    state = rc.init_state(prob)
    real_state = rc.absorb_r2adi(
        state, prob, rc.expand_realified(state, prob, mu))
    cplx_state = rc.absorb_r2adi(
        state, prob, rc.expand_parallel(state, prob, [mu, mu.conjugate()]))
    assert not np.iscomplexobj(real_state.Z)
    assert rel2(dense_x(real_state), dense_x(cplx_state)) <= 1e-10
    assert rel2(real_state.R @ real_state.R.conj().T,
                cplx_state.R @ cplx_state.R.conj().T) <= 1e-10
    assert_invariants(real_state, prob)


# ----------------------------------------------------------------- absorbs

def test_absorb_r2adi_scalar_step():
    prob, state = scalar_state_after_step1()
    np.testing.assert_allclose(state.Z, [[-0.5 / np.sqrt(0.625)]],
                               atol=1e-14)
    assert abs(state.Z[0, 0] - (-0.632456)) < 1e-6
    np.testing.assert_allclose(dense_x(state), [[0.4]], atol=1e-14)
    np.testing.assert_allclose(state.R, [[0.2]], atol=1e-14)
    np.testing.assert_allclose(state.K, [[0.4]], atol=1e-14)
    # residual of X = 2/5: -4/5 + 1 - 4/25 = 1/25 = R^2
    np.testing.assert_allclose(state.R[0, 0] ** 2, 1.0 / 25.0, atol=1e-14)


def test_absorb_radi_scalar_step2():
    prob, state = scalar_state_after_step1()
    mu = np.sqrt(2.0)
    block = rc.expand_simple(state, prob, mu, closed_loop=True)
    state = rc.absorb_radi(state, prob, block)
    np.testing.assert_allclose(dense_x(state), [[np.sqrt(2.0) - 1.0]],
                               atol=1e-12)
    assert abs(state.R[0, 0]) <= 1e-12


def test_absorb_radi_rejects_open_loop_block():
    prob, state = scalar_state_after_step1()
    block = rc.expand_simple(state, prob, 2.0, closed_loop=False)
    with pytest.raises(ValueError, match="closed-loop"):
        rc.absorb_radi(state, prob, block)


def test_absorbs_agree_for_lyapunov():
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    prob = rc.ProblemSpec(A=A, B=None, C=np.ones((1, 3)))
    s1 = rc.init_state(prob)
    s2 = rc.init_state(prob)
    for mu in (1.0, 2.0):
        b1 = rc.expand_simple(s1, prob, mu, closed_loop=False)
        b2 = rc.expand_simple(s2, prob, mu, closed_loop=True)
        s1 = rc.absorb_r2adi(s1, prob, b1)
        s2 = rc.absorb_radi(s2, prob, b2)
        for name in ("Z", "h", "Hminus", "SB", "R", "K"):
            np.testing.assert_allclose(getattr(s1, name), getattr(s2, name),
                                       atol=1e-14)


def test_absorb_degenerate_block():
    prob = scalar_problem()
    state = rc.init_state(prob)
    block = rc.ExpansionBlock(
        Ztil=np.zeros((1, 1)), U1=np.zeros((1, 1)), U2=np.zeros((0, 1)),
        D=np.array([[1.0]]), kind="simple", poles=[1 + 0j],
        closed_loop=False)
    with pytest.raises(ExpansionDegenerateError):
        rc.absorb_r2adi(state, prob, block)


def test_absorb_does_not_mutate_input_state():
    prob = scalar_problem()
    state = rc.init_state(prob)
    block = rc.expand_simple(state, prob, 1.0)
    rc.absorb_r2adi(state, prob, block)
    assert state.q == 0
    np.testing.assert_array_equal(state.R, [[1.0]])


def test_invariants_random_complex_three_steps():
    prob = random_problem(35, n=30, m=2, p=2, complex_data=True)
    state = rc.init_state(prob)
    for mu in (1.0 + 0.5j, 2.0, 3.0 - 1.0j):
        block = rc.expand_simple(state, prob, mu)
        state = rc.absorb_r2adi(state, prob, block)
        assert_invariants(state, prob)


def test_invariants_generalized_radi():
    prob = random_problem(36, n=30, m=2, p=1, generalized=True)
    state = rc.init_state(prob)
    for mu in (1.0, 2.0, 4.0):
        block = rc.expand_simple(state, prob, mu, closed_loop=True)
        state = rc.absorb_radi(state, prob, block)
        assert_invariants(state, prob)


def test_residual_check_detects_corruption():
    prob = random_problem(37, n=20, m=1, p=1)
    state = rc.init_state(prob)
    state = rc.absorb_r2adi(state, prob, rc.expand_simple(state, prob, 1.0))
    state.Z = state.Z + 0.01
    checks = rc.brad_residual_check(state, prob)
    assert checks["brad_identity"] > 1e-3
