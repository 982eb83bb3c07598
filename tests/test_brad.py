"""Tests for the BRAD state: expansion, absorption, invariants."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
from conftest import assert_invariants, dense_x, fem1d_pair, one_shift_per_step, \
    random_problem, rel2, scalar_problem
from invariants import brad_residual_check
from ricadi.errors import ExpansionDegenerateError
from ricadi.kernels import cholesky_upper, solve_lyapunov_small, \
    solve_sylvester_small
from ricadi.oracle import residual_defect


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
    checks = brad_residual_check(brad.init_state(prob), prob)
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
    state = replace(brad.init_state(prob), R=np.zeros((1, 1)))
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


# (complex data, shifts of the compared expansion): one block, two blocks,
# a realified 2-by-2 block alone and beside a real one, and a real D cast to
# complex Ztil's dtype
D_CASES = {
    "one": (False, [2.0]),
    "two": (False, [2.0, 3.0]),
    "realified": (False, [2.0 + 1.0j]),
    "realified-and-real": (False, [2.0 + 1.0j, 3.0]),
    "complex-data": (True, [2.0]),
}


@pytest.mark.parametrize("case", sorted(D_CASES))
def test_expansion_d_is_bitwise_block_diag(monkeypatch, case):
    # D is built without sla.block_diag: its values and its C order are
    # block_diag's, cast to the block's dtype as before
    complex_data, shifts = D_CASES[case]
    prob = random_problem(35, n=20, m=1, p=2, complex_data=complex_data)
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    parts = []
    block_part = brad._block_part

    def recording_block_part(*args):
        out = block_part(*args)
        parts.append(out[2])
        return out

    monkeypatch.setattr(brad, "_block_part", recording_block_part)
    block = brad.expand_parallel(state, prob, shifts)
    ref = sla.block_diag(*parts).astype(block.Ztil.dtype)
    assert block.D.flags["C_CONTIGUOUS"] and ref.flags["C_CONTIGUOUS"]
    assert (block.D.dtype, block.D.shape) == (ref.dtype, ref.shape)
    assert block.D.tobytes() == ref.tobytes()


# ------------------------------------------------------- _right_divide_upper

def _upper(t, complex_data, order, seed=36):
    """An upper triangular Cholesky factor of a well-conditioned t-by-t Gram."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((t, t))
    if complex_data:
        M = M + 1j * rng.standard_normal((t, t))
    return np.asarray(cholesky_upper(M.conj().T @ M + t * np.eye(t)), order=order)


@pytest.mark.parametrize("rows", [50, 2, 0])
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_right_divide_upper_is_bitwise_solve_triangular(order, complex_data,
                                                        rows):
    # one trtrs call, on the branch solve_triangular takes for each layout of
    # G; rows = 0 is the coupling at q = 0 and B* Zt at m = 0
    G = _upper(4, complex_data, order)
    rng = np.random.default_rng(37)
    X = rng.standard_normal((rows, 4))
    if complex_data:
        X = X + 1j * rng.standard_normal((rows, 4))
    assert G.flags[f"{order}_CONTIGUOUS"]
    out = brad._right_divide_upper(X, G)
    ref = sla.solve_triangular(G.T, X.T, lower=True).T
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape) == (X.dtype, X.shape)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_right_divide_upper_zero_diagonal_is_a_linalg_error(order):
    # as solve_triangular did: trtrs's info > 0 is not turned into garbage
    G = _upper(4, False, order)
    G[2, 2] = 0.0
    X = np.ones((5, 4))
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        brad._right_divide_upper(X, G)
    with pytest.raises(np.linalg.LinAlgError):
        sla.solve_triangular(G.T, X.T, lower=True)


def test_right_divide_upper_illegal_argument_is_a_value_error(monkeypatch):
    # a negative info from trtrs names the argument LAPACK rejected
    G = _upper(4, False, "C")
    monkeypatch.setattr(brad.sla, "get_lapack_funcs",
                        lambda names, arrays: (lambda *a, **k: (None, -2),))
    with pytest.raises(ValueError, match="argument 2 of LAPACK trtrs"):
        brad._right_divide_upper(np.ones((5, 4)), G)


# -------------------------------------------------------- expand_realified

def test_expand_realified_mapping(monkeypatch):
    prob = scalar_problem()
    state = brad.init_state(prob)
    monkeypatch.setattr(
        brad, "_expansion_solve",
        lambda state, problem, mu, *args: np.array([[0.3 - 0.4j]]))
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


def schur_complement_absorb_r2adi(state, problem, block):
    """The open-loop body with its own Gram and coupling, as a reference.

    The Gram is the Schur complement Y22 - Y12* Y12 of a Lyapunov solve whose
    right-hand side carries two Y12* U2 cross terms, and the coupling is
    -Hm Y12 + U2 + Y12 D. The shared tail derives both from the corrected
    block instead; in exact arithmetic the results agree.
    """
    Ztil, U1, D = block.Ztil, block.U1, block.D
    U2 = state.h.conj().T @ U1
    BtZt = problem.B.conj().T @ Ztil
    Y12 = solve_sylvester_small(state.Hminus, D, state.SB.conj().T @ BtZt)
    rhs22 = (BtZt.conj().T @ BtZt + U1.conj().T @ U1
             - Y12.conj().T @ U2 - U2.conj().T @ Y12)
    G22 = cholesky_upper(solve_lyapunov_small(D, rhs22) - Y12.conj().T @ Y12)

    def div(X):
        return brad._right_divide_upper(X, G22)

    # the reference appends the block with its own bookkeeping
    Zhat = div(Ztil - state.Z @ Y12)
    U1hat, SBhat = div(U1 - state.h @ Y12), problem.B.conj().T @ Zhat
    EZhat = Zhat if problem.E is None else problem.E.conj().T @ Zhat
    Hminus = np.block([[state.Hminus, div(-state.Hminus @ Y12 + U2 + Y12 @ D)],
                       [np.zeros((D.shape[0], state.q)), div(G22 @ D)]])
    return brad.BradState(
        Z=np.hstack([state.Z, Zhat]), h=np.hstack([state.h, U1hat]),
        Hminus=Hminus, SB=np.hstack([state.SB, SBhat]),
        R=state.R + EZhat @ U1hat.conj().T, K=state.K + EZhat @ SBhat.conj().T,
        poles=state.poles + block.poles)


# (complex data, E, shifts absorbed before, batch of the compared step)
ABSORB_CASES = [
    (False, False, [], [1.5]),
    (False, True, [], [1.0, 2.5]),
    (False, False, [], [1.5 + 0.8j]),
    (False, False, [1.0, 2 + 1j], [3.0]),
    (False, True, [1.0, 2 + 1j], [0.7, 4.0]),
    (False, True, [2.0, 0.5], [1.5 - 0.8j, 3.0]),
    (True, False, [], [1.5 + 0.8j]),
    (True, True, [], [1.0, 2.0 - 1.0j]),
    (True, False, [1.0 + 0.5j, 2.0], [3.0 - 1.0j]),
    (True, True, [0.5, 2.0 + 1.0j], [1.0, 4.0 - 0.5j]),
]


def absorb_case(seed, complex_data, generalized, before, batch):
    prob = random_problem(seed, n=30, m=2, p=2, generalized=generalized,
                          complex_data=complex_data)
    state = brad.init_state(prob)
    for mu in before:
        state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, mu))
    return prob, state, brad.expand_parallel(state, prob, batch)


@pytest.mark.parametrize("i", range(len(ABSORB_CASES)))
def test_absorb_r2adi_matches_schur_complement_form(i):
    prob, state, block = absorb_case(40 + i, *ABSORB_CASES[i])
    kinds = {"simple", "parallel"} | ({"realified"} if prob.is_real else set())
    assert block.kind in kinds
    new = brad.absorb_r2adi(state, prob, block)
    ref = schur_complement_absorb_r2adi(state, prob, block)
    assert new.q > state.q
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        a, b = getattr(new, name), getattr(ref, name)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), name
    assert new.poles == ref.poles


@pytest.mark.parametrize("closed_loop", [False, True])
@pytest.mark.parametrize("i", range(len(ABSORB_CASES)))
def test_absorbed_block_is_a_closed_loop_block(monkeypatch, i, closed_loop):
    # Both bodies hand the tail a block with (A* - K B*) Zt - E* Zt D = R U1t
    # for the absorbing state's K and R, and BZt = B* Zt.
    prob, state, block = absorb_case(40 + i, *ABSORB_CASES[i])
    if closed_loop:
        block = brad.expand_parallel(state, prob, ABSORB_CASES[i][3], True)
    seen = []
    tail = brad._absorb

    def recording_tail(state, problem, block, Zt, U1t, BZt, *rest):
        seen.append((Zt, U1t, BZt))
        return tail(state, problem, block, Zt, U1t, BZt, *rest)

    monkeypatch.setattr(brad, "_absorb", recording_tail)
    (brad.absorb_radi if closed_loop else brad.absorb_r2adi)(state, prob, block)
    (Zt, U1t, BZt), = seen
    Bt = prob.B.conj().T
    EZt = Zt if prob.E is None else prob.E.conj().T @ Zt
    terms = [prob.A.conj().T @ Zt, -state.K @ (Bt @ Zt), -EZt @ block.D,
             -state.R @ U1t]
    scale = sum(np.linalg.norm(t) for t in terms)
    assert np.linalg.norm(sum(terms)) <= 1e-12 * scale
    assert np.linalg.norm(BZt - Bt @ Zt) <= 1e-12 * np.linalg.norm(Bt @ Zt)


def test_absorb_degenerate_block():
    prob = scalar_problem()
    state = brad.init_state(prob)
    block = brad.ExpansionBlock(
        Ztil=np.zeros((1, 1)), U1=np.zeros((1, 1)), D=np.array([[1.0]]),
        kind="simple", poles=[1 + 0j], closed_loop=False)
    with pytest.raises(ExpansionDegenerateError):
        brad.absorb_r2adi(state, prob, block)


STATE_ARRAYS = ("Z", "h", "Hminus", "SB", "R", "K")


def fresh_copy(state):
    """The state with every array copied and no growth buffer behind Z."""
    return brad.BradState(**{k: getattr(state, k).copy() for k in STATE_ARRAYS},
                          poles=list(state.poles),
                          gram_cancellation=state.gram_cancellation)


def assert_states_equal(x, y):
    for k in STATE_ARRAYS:
        a, b = getattr(x, k), getattr(y, k)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), k
    assert x.poles == y.poles and x.gram_cancellation == y.gram_cancellation


def test_absorb_does_not_mutate_input_state():
    prob = scalar_problem()
    state = brad.init_state(prob)
    block = brad.expand_simple(state, prob, 1.0)
    brad.absorb_r2adi(state, prob, block)
    assert state.q == 0
    np.testing.assert_array_equal(state.R, [[1.0]])
    # From an empty and from a two-step state, both absorption bodies leave
    # every field of the input bitwise as it was, and each of two absorptions
    # from one state equals the same absorption from a fresh copy of it: the
    # second, which finds the first's columns past its q in the buffer,
    # writes its own elsewhere. The columns each appends overlap neither the
    # other's nor the input's, every Z is read-only, and the other arrays
    # share no memory with anything.
    prob = random_problem(37, n=20, m=2, p=2)
    small = ("h", "Hminus", "SB", "R", "K")
    state = brad.init_state(prob)
    for mu in (None, 1.0, 2.0):
        if mu is not None:
            state = brad.absorb_r2adi(state, prob,
                                      brad.expand_simple(state, prob, mu))
        q = state.q
        snapshot = {k: getattr(state, k).tobytes() for k in STATE_ARRAYS}
        poles = list(state.poles)

        def absorb_both(state):
            return (brad.absorb_r2adi(state, prob,
                                      brad.expand_simple(state, prob, 3.0)),
                    brad.absorb_radi(state, prob, brad.expand_simple(
                        state, prob, 4.0, closed_loop=True)))

        a, b = absorb_both(state)
        for k in STATE_ARRAYS:
            assert getattr(state, k).tobytes() == snapshot[k], k
        assert state.poles == poles
        fresh = fresh_copy(state)
        ref_a, ref_b = absorb_both(fresh)
        assert_states_equal(a, ref_a)
        assert_states_equal(b, ref_b)
        assert not np.shares_memory(a.Z[:, q:], b.Z[:, q:])
        for x in (a, b):
            assert not np.shares_memory(x.Z[:, q:], state.Z)
            assert not x.Z.flags.writeable
            for k in small:
                for y in (a, b, state):
                    others = [getattr(y, j) for j in STATE_ARRAYS
                              if y is not x or j != k]
                    assert not any(np.shares_memory(getattr(x, k), o)
                                   for o in others), k


def test_absorbing_a_replaced_z_reads_the_replacement():
    # a state whose Z was replaced keeps the old state's buffer, whose tip is
    # the old Z; absorption must read the new Z, not the buffer's columns
    prob = random_problem(41, n=20, m=1, p=2)
    state = brad.init_state(prob)
    for mu in (1.0, 2.0):
        state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, mu))
    delta = 1e-3
    replaced = replace(state, Z=state.Z + delta)
    built = replace(fresh_copy(state), Z=state.Z + delta)
    for absorb, closed_loop in ((brad.absorb_r2adi, False), (brad.absorb_radi, True)):
        a = absorb(replaced, prob, brad.expand_simple(replaced, prob, 3.0, closed_loop))
        b = absorb(built, prob, brad.expand_simple(built, prob, 3.0, closed_loop))
        assert_states_equal(a, b)
        np.testing.assert_array_equal(a.Z[:, :state.q], state.Z + delta)


def test_growing_z_matches_an_hstack_of_its_blocks():
    # Over three buffer growths (32, then 2q columns each time it fills) the
    # buffered run is bitwise the run whose every absorption starts from a Z
    # that np.hstack built from the same blocks, with no buffer behind it.
    # The reference is Fortran-ordered like the buffer, since Z's layout sets
    # the BLAS rounding of Z @ Y12.
    prob = random_problem(42, n=200, m=1, p=4)
    shifts = [float(s) for s in np.geomspace(0.5, 50.0, 40)]
    state = ref = brad.init_state(prob)
    blocks, buffers = [], set()
    for i, mu in enumerate(shifts):
        absorb, closed_loop = ((brad.absorb_r2adi, False) if i % 3
                               else (brad.absorb_radi, True))
        state = absorb(state, prob, brad.expand_simple(state, prob, mu, closed_loop))
        new = absorb(ref, prob, brad.expand_simple(ref, prob, mu, closed_loop))
        blocks.append(new.Z[:, ref.q:])
        ref = replace(new, Z=np.asfortranarray(np.hstack(blocks)), _basis=None)
        assert_states_equal(state, ref)
        buffers.add(state._basis.data.shape[1])
    assert state.q == 4 * len(shifts)
    assert sorted(buffers) == [32, 72, 152, 312]


def test_result_z_is_owned_and_trimmed():
    prob = random_problem(43, n=40, m=1, p=2)
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-10))
    assert res.converged
    assert res.Z is res.state.Z and res.state._basis is None
    assert res.Z.flags.owndata
    assert res.Z.shape == (40, res.records[-1].subspace_dim) == (40, res.state.q)


def test_no_state_z_can_be_written():
    prob = random_problem(44, n=30, m=1, p=2)
    states = [brad.init_state(prob)]
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-10),
                   callback=lambda state, rec: states.append(state))
    states.append(res.state)
    assert len(states) > 4
    for state in states:
        with pytest.raises(ValueError, match="read-only"):
            state.Z[...] = 0.0
        assert state.Z.shape == (30, state.q)


def test_state_and_block_fields_cannot_be_rebound():
    prob, state = scalar_state_after_step1()
    block = brad.expand_simple(state, prob, 2.0)
    for obj, name in ((state, "R"), (state, "gram_cancellation"),
                      (block, "Ztil"), (block, "poles")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


def test_invariants_random_complex_three_steps():
    prob = random_problem(35, n=30, m=2, p=2, complex_data=True)
    state = brad.init_state(prob)
    for mu in (1.0 + 0.5j, 2.0, 3.0 - 1.0j):
        block = brad.expand_simple(state, prob, mu)
        state = brad.absorb_r2adi(state, prob, block)
        assert_invariants(state, prob)


def test_unpaired_complex_shift_after_realified_pair():
    # On a real state an unpaired complex shift is its pair too: every block
    # is realified, the state stays real and Hminus keeps its 2-by-2 blocks.
    prob = random_problem(38, n=30, m=1, p=1)
    batches = [[1.5 + 0.8j, 1.5 - 0.8j], [2.0 + 1.0j], [3.0 - 0.5j]]
    state = brad.init_state(prob)
    for batch in batches:
        block = brad.expand_parallel(state, prob, batch)
        assert block.kind == "realified"
        state = brad.absorb_r2adi(state, prob, block)
        assert_invariants(state, prob)
    assert not np.iscomplexobj(state.Hminus)
    assert np.count_nonzero(np.diag(state.Hminus, -1)) == 3
    ref = one_shift_per_step(prob, [1.5 + 0.8j, 1.5 - 0.8j, 2.0 + 1.0j,
                                    2.0 - 1.0j, 3.0 + 0.5j, 3.0 - 0.5j])
    assert rel2(dense_x(state), dense_x(ref)) <= 1e-12


def test_mixed_batch_on_real_state_absorbs_open_loop():
    # Both complex shifts are realified, the pair listed twice in one solve:
    # the block's D is real with two 2-by-2 blocks on its diagonal.
    prob = random_problem(39, n=30, m=1, p=2)
    state = brad.init_state(prob)
    block = brad.expand_parallel(state, prob, [1.5 + 0.8j, 2.0 + 1.0j, 1.5 - 0.8j])
    assert not np.iscomplexobj(block.D) and block.D.shape == (8, 8)
    assert np.count_nonzero(np.diag(block.D, -1)) == 4
    assert block.poles == [1.5 + 0.8j, 1.5 - 0.8j] * 2 + [2 + 1j, 2 - 1j] * 2
    state = brad.absorb_r2adi(state, prob, block)
    assert_invariants(state, prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_parallel(state, prob, [3.0]))
    assert_invariants(state, prob)
    ref = one_shift_per_step(prob, [1.5 + 0.8j, 1.5 - 0.8j, 2 + 1j, 2 - 1j, 3.0])
    assert rel2(dense_x(state), dense_x(ref)) <= 1e-12


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
    state = replace(state, Z=state.Z + 0.01)
    checks = brad_residual_check(state, prob)
    assert checks["brad_identity"] > 1e-3


class EntryCopyCountingCSR(sp.csr_matrix):
    """A CSR matrix that counts the arrays of its entries made from it."""

    copies = 0

    def _with_data(self, data, copy=True):
        # scipy forms every same-pattern result (copy, conj, astype, scaling)
        # here; one with new entries, or copied ones, counts
        if copy or data is not self.data:
            EntryCopyCountingCSR.copies += 1
        return sp.csr_matrix._with_data(self, data, copy)


def test_real_solve_with_e_copies_no_entries_of_a_or_e(monkeypatch):
    # A* and E* are views for real data: assembled once per solve, never
    # copied by an absorption step or by the oracle's defect estimate
    A, E = fem1d_pair(40)
    rng = np.random.default_rng(5)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((40, 1)),
                          C=rng.standard_normal((2, 40)), E=E)
    prob.A, prob.E = EntryCopyCountingCSR(prob.A), EntryCopyCountingCSR(prob.E)
    monkeypatch.setattr(EntryCopyCountingCSR, "copies", 0)
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-10))
    assert res.converged and len(res.records) > 2
    assert residual_defect(prob, res.Z, res.R) < 1e-12
    assert EntryCopyCountingCSR.copies == 0
