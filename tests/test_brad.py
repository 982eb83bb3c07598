"""Tests for the BRAD state: expansion, absorption, invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
from conftest import assert_invariants, dense_x, one_shift_per_step, \
    random_problem, rel2, scalar_problem
from ricadi.errors import ExpansionDegenerateError


def scalar_state_after_step1():
    prob = scalar_problem()
    state = brad.init_state(prob)
    block = brad.expand_simple(state, prob, 1.0)
    return prob, brad.absorb_r2adi(state, prob, block)


# ------------------------------------------------------------- init_state

def test_init_state_scalar():
    prob = scalar_problem()
    state = brad.init_state(prob)
    np.testing.assert_array_equal(state.R, [[1.0]])
    np.testing.assert_array_equal(state.K, [[0.0]])
    assert state.q == 0


def test_init_state_wide_c():
    prob = random_problem(30, n=10, m=1, p=2)
    state = brad.init_state(prob)
    assert state.R.shape == (10, 2)
    np.testing.assert_allclose(state.R, prob.C.conj().T)


def test_init_state_invariants_vacuous():
    prob = random_problem(31, n=10, m=2, p=1)
    checks = rc.brad_residual_check(brad.init_state(prob), prob)
    assert all(v == 0.0 for v in checks.values())


# ----------------------------------------------------------- expand_simple

def test_expand_simple_scalar():
    prob = scalar_problem()
    block = brad.expand_simple(brad.init_state(prob), prob, 1.0)
    np.testing.assert_allclose(block.Ztil, [[-0.5]])
    np.testing.assert_array_equal(block.U1, [[1.0]])
    np.testing.assert_array_equal(block.D, [[1.0]])
    assert block.poles == [1 + 0j]


def test_expand_simple_converged_residual():
    prob = scalar_problem()
    state = brad.init_state(prob)
    state.R = np.zeros((1, 1))
    block = brad.expand_simple(state, prob, 1.0)
    np.testing.assert_array_equal(block.Ztil, [[0.0]])


def test_expand_simple_generalized():
    A = sp.csr_matrix(np.array([[-2.0]]))
    E = sp.csr_matrix(np.array([[2.0]]))
    prob = rc.ProblemSpec(A=A, B=np.array([[1.0]]), C=np.array([[1.0]]),
                          E=E)
    block = brad.expand_simple(brad.init_state(prob), prob, 1.0)
    np.testing.assert_allclose(block.Ztil, [[-0.25]])


def test_expand_simple_rejects_left_half_plane_shift():
    prob = scalar_problem()
    for bad, match in ((-1.0, "real part must be positive"),
                       (np.inf, "must be finite"),
                       (complex(1.0, np.nan), "must be finite")):
        with pytest.raises(ValueError, match=match):
            brad.expand_simple(brad.init_state(prob), prob, bad)


# --------------------------------------------------------- expand_parallel

def test_expand_parallel_degenerate_batch():
    prob = scalar_problem()
    state = brad.init_state(prob)
    a = brad.expand_parallel(state, prob, [1.0])
    b = brad.expand_simple(state, prob, 1.0)
    np.testing.assert_array_equal(a.Ztil, b.Ztil)
    np.testing.assert_array_equal(a.D, b.D)


def test_expand_parallel_duplicate_shifts():
    prob = scalar_problem()
    with pytest.raises(ValueError, match="pairwise distinct"):
        brad.expand_parallel(brad.init_state(prob), prob, [1.0, 1.0])


def test_expand_parallel_scalar_two_shifts():
    prob = scalar_problem()
    block = brad.expand_parallel(brad.init_state(prob), prob, [1.0, 2.0])
    np.testing.assert_allclose(block.Ztil, [[-0.5, -1.0 / 3.0]])
    np.testing.assert_allclose(block.D, np.diag([1.0, 2.0]))
    assert block.poles == [1 + 0j, 2 + 0j]


def test_expand_parallel_matches_serial_solves():
    prob = random_problem(32, n=20, m=2, p=2)
    state = brad.init_state(prob)
    shifts = [1.0, 2.5, 4.0]
    block = brad.expand_parallel(state, prob, shifts)
    for i, mu in enumerate(shifts):
        simple = brad.expand_simple(state, prob, mu)
        np.testing.assert_allclose(block.Ztil[:, 2 * i:2 * i + 2],
                                   simple.Ztil, atol=1e-14)


def test_expansion_blocks_are_c_ordered():
    # the layout of U1 and D sets the rounding of the absorption products
    # and with it the iterates
    prob = random_problem(33, n=20, m=2, p=2)
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    for block in (brad.expand_simple(state, prob, 2.0),
                  brad.expand_parallel(state, prob, [2.0, 3.0]),
                  brad.expand_simple(state, prob, 2.0 + 1.0j)):
        for name in ("U1", "D"):
            assert getattr(block, name).flags["C_CONTIGUOUS"], name


# -------------------------------------------------------- expand_realified

def test_expand_realified_mapping(monkeypatch):
    prob = scalar_problem()
    state = brad.init_state(prob)
    monkeypatch.setattr(
        brad, "_expansion_solve",
        lambda state, problem, mu, closed_loop: np.array([[0.3 - 0.4j]]))
    block = brad.expand_realified(state, prob, 1 + 1j)
    np.testing.assert_allclose(block.Ztil, [[0.3, -0.4]])
    np.testing.assert_array_equal(block.U1, [[1.0, 0.0]])
    np.testing.assert_array_equal(block.D, [[1.0, 1.0], [-1.0, 1.0]])
    assert block.poles == [1 + 1j, 1 - 1j]
    assert not np.iscomplexobj(block.Ztil)


def test_expand_realified_requires_complex_shift():
    # a real shift is its own conjugate: the pair is one shift twice
    prob = scalar_problem()
    with pytest.raises(ValueError, match="pairwise distinct"):
        brad.expand_realified(brad.init_state(prob), prob, 1.0)


def test_expand_realified_on_complex_data_expands_in_parallel():
    prob = random_problem(33, n=6, m=1, p=1, complex_data=True)
    state = brad.init_state(prob)
    block = brad.expand_realified(state, prob, 1 + 1j)
    ref = brad.expand_parallel(state, prob, [1 + 1j, 1 - 1j])
    assert block.kind == ref.kind == "parallel"
    assert block.poles == ref.poles == [1 + 1j, 1 - 1j]
    for name in ("Ztil", "U1", "D"):
        np.testing.assert_array_equal(getattr(block, name), getattr(ref, name))


def test_expand_realified_equals_complex_pair():
    prob = random_problem(34, n=25, m=2, p=2)
    mu = 1.5 + 0.8j
    state = brad.init_state(prob)
    real_state = brad.absorb_r2adi(
        state, prob, brad.expand_realified(state, prob, mu))
    cplx_state = one_shift_per_step(prob, [mu, mu.conjugate()])
    assert not np.iscomplexobj(real_state.Z) and np.iscomplexobj(cplx_state.Z)
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
    block = brad.expand_simple(state, prob, mu, closed_loop=True)
    state = brad.absorb_radi(state, prob, block)
    np.testing.assert_allclose(dense_x(state), [[np.sqrt(2.0) - 1.0]],
                               atol=1e-12)
    assert abs(state.R[0, 0]) <= 1e-12


def test_absorb_radi_rejects_open_loop_block():
    prob, state = scalar_state_after_step1()
    block = brad.expand_simple(state, prob, 2.0, closed_loop=False)
    with pytest.raises(ValueError, match="closed-loop"):
        brad.absorb_radi(state, prob, block)


def test_absorbs_agree_for_lyapunov():
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    prob = rc.ProblemSpec(A=A, B=None, C=np.ones((1, 3)))
    s1 = brad.init_state(prob)
    s2 = brad.init_state(prob)
    for mu in (1.0, 2.0):
        b1 = brad.expand_simple(s1, prob, mu, closed_loop=False)
        b2 = brad.expand_simple(s2, prob, mu, closed_loop=True)
        s1 = brad.absorb_r2adi(s1, prob, b1)
        s2 = brad.absorb_radi(s2, prob, b2)
        for name in ("Z", "h", "Hminus", "SB", "R", "K"):
            np.testing.assert_allclose(getattr(s1, name), getattr(s2, name),
                                       atol=1e-14)


def test_absorb_degenerate_block():
    prob = scalar_problem()
    state = brad.init_state(prob)
    block = brad.ExpansionBlock(
        Ztil=np.zeros((1, 1)), U1=np.zeros((1, 1)), D=np.array([[1.0]]),
        kind="simple", poles=[1 + 0j], closed_loop=False)
    with pytest.raises(ExpansionDegenerateError):
        brad.absorb_r2adi(state, prob, block)


def test_absorb_does_not_mutate_input_state():
    prob = scalar_problem()
    state = brad.init_state(prob)
    block = brad.expand_simple(state, prob, 1.0)
    brad.absorb_r2adi(state, prob, block)
    assert state.q == 0
    np.testing.assert_array_equal(state.R, [[1.0]])
    # every field of a two-step state survives both absorption bodies
    prob = random_problem(37, n=20, m=2, p=2)
    state = brad.init_state(prob)
    for mu in (1.0, 2.0):
        state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, mu))
    names = ("Z", "h", "Hminus", "SB", "R", "K")
    snapshot = {k: getattr(state, k).copy() for k in names}
    poles = list(state.poles)
    brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 3.0))
    brad.absorb_radi(state, prob, brad.expand_simple(state, prob, 4.0, closed_loop=True))
    for k in names:
        np.testing.assert_array_equal(getattr(state, k), snapshot[k], err_msg=k)
    assert state.poles == poles


def test_invariants_random_complex_three_steps():
    prob = random_problem(35, n=30, m=2, p=2, complex_data=True)
    state = brad.init_state(prob)
    for mu in (1.0 + 0.5j, 2.0, 3.0 - 1.0j):
        block = brad.expand_simple(state, prob, mu)
        state = brad.absorb_r2adi(state, prob, block)
        assert_invariants(state, prob)


def test_unpaired_complex_shift_after_realified_pair():
    # A realified pair leaves a real 2-by-2 block in Hminus; an unpaired
    # complex shift then makes the state complex, and the next open-loop
    # Sylvester solve meets complex data with a nonzero subdiagonal.
    prob = random_problem(38, n=30, m=1, p=1)
    batches = [[1.5 + 0.8j, 1.5 - 0.8j], [2.0 + 1.0j], [3.0 - 0.5j]]
    state = brad.init_state(prob)
    for batch in batches:
        block = brad.expand_parallel(state, prob, batch)
        state = brad.absorb_r2adi(state, prob, block)
        assert_invariants(state, prob)
    assert np.iscomplexobj(state.Hminus) and np.any(np.diag(state.Hminus, -1))

    class Source:
        def __init__(self):
            self.batches = [list(b) for b in batches]

        def next_shifts(self, state, problem, batch=1):
            return self.batches.pop(0)

    seen = []
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=1e-14, max_iter=3),
                   Source(), callback=lambda st, rec: seen.append(st))
    assert len(seen) == 3 and not any(rec.closed_loop for rec in res.records)
    for st in seen:
        assert_invariants(st, prob)
    np.testing.assert_allclose(dense_x(res), dense_x(state), rtol=0,
                               atol=1e-12 * np.linalg.norm(dense_x(state)))


def test_mixed_batch_on_real_state_absorbs_open_loop():
    # The pair is realified, the unpaired shift is not: the block's D is
    # complex with a real 2-by-2 block on its diagonal.
    prob = random_problem(39, n=30, m=1, p=2)
    state = brad.init_state(prob)
    block = brad.expand_parallel(state, prob, [1.5 + 0.8j, 2.0 + 1.0j, 1.5 - 0.8j])
    assert np.iscomplexobj(block.D) and np.any(np.diag(block.D, -1))
    state = brad.absorb_r2adi(state, prob, block)
    assert_invariants(state, prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_parallel(state, prob, [3.0]))
    assert_invariants(state, prob)


def test_invariants_generalized_radi():
    prob = random_problem(36, n=30, m=2, p=1, generalized=True)
    state = brad.init_state(prob)
    for mu in (1.0, 2.0, 4.0):
        block = brad.expand_simple(state, prob, mu, closed_loop=True)
        state = brad.absorb_radi(state, prob, block)
        assert_invariants(state, prob)


def test_residual_check_detects_corruption():
    prob = random_problem(37, n=20, m=1, p=1)
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    state.Z = state.Z + 0.01
    checks = rc.brad_residual_check(state, prob)
    assert checks["brad_identity"] > 1e-3
