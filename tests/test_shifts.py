"""Tests for shift sources: precomputed replay and the adaptive strategy."""

import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ricadi as rc
import ricadi.brad as brad
import ricadi.shifts as shifts_mod
from conftest import (
    WindowShifts,
    fem1d_pair,
    random_problem,
    rotating_problem,
    scalar_problem,
    system_of,
)
from ricadi.errors import ShiftsExhaustedError, ShiftStrategyError
from ricadi.shifted import DENSE_LU_BELOW_N
from ricadi.shifts import projected_hamiltonian


def e_factor_of(problem):
    """E's Factor as solve makes it, None without E."""
    return None if problem.E is None else shifts_mod.factor_e(problem.E)


def residual_hamiltonian_shift(state, problem, l):
    """The shift HamiltonianShifts' rule picks from the last l columns."""
    system = system_of(problem, e_factor_of(problem))
    return WindowShifts(l).next_shifts(state, problem, 1, system)[0]


def zu_projected_hamiltonian(state, problem, l, e_factor=None):
    """Reference: the projected Hamiltonian with the feedback term B* Z Z* U
    formed from all of Z (O(n q l)) instead of from the cached K."""
    A, B, E = problem.A, problem.B, problem.E
    q = state.q
    base = problem.C.conj().T if q == 0 else state.Z[:, max(q - l, 0):]
    U, _ = np.linalg.qr(base)
    EU = U if E is None else (e_factor or shifts_mod.factor_e(E)).solve(U)
    AtilU = A @ EU - B @ (state.SB @ (state.Z.conj().T @ U))
    H11 = U.conj().T @ AtilU
    BtU = B.conj().T @ U
    RtU = state.R.conj().T @ EU
    return np.block([[H11, BtU.conj().T @ BtU],
                     [RtU.conj().T @ RtU, -H11.conj().T]])


def loop_best_shift(H):
    """Reference: the shift scorer as one Python loop over the eigenpairs."""
    u = H.shape[0] // 2
    w, V = np.linalg.eig(H)
    candidates = []
    for i in range(len(w)):
        mu = -w[i]
        if not mu.real > 0:
            continue
        v = V[:, i]
        v = v / np.linalg.norm(v)
        r, qv = v[:u], v[u:]
        qn = np.linalg.norm(qv)
        inner = np.vdot(qv, r)
        if qn == 0:
            score = 0.0
        elif inner == 0:
            score = shifts_mod._SCORE_CLAMP
        else:
            score = min(qn**2 / abs(inner), shifts_mod._SCORE_CLAMP)
        candidates.append((score, abs(mu.imag), -mu.real, -mu.imag, mu))
    if not candidates:
        raise ShiftStrategyError("shift strategy yielded no admissible shift")
    candidates.sort(key=lambda c: c[:4], reverse=True)
    mu = candidates[0][4]
    if abs(mu.imag) <= 1e-14 * abs(mu.real):
        mu = complex(mu.real, 0.0)
    return mu


def hamiltonian_defect(H):
    """|| JH - (JH)* || for J = [[0, I], [-I, 0]]; zero iff H is Hamiltonian."""
    u = H.shape[0] // 2
    J = np.block([[np.zeros((u, u)), np.eye(u)], [-np.eye(u), np.zeros((u, u))]])
    JH = J @ H
    return float(np.linalg.norm(JH - JH.conj().T))


def scalar_state_after_step1():
    prob = scalar_problem()
    system = system_of(prob)
    state = brad.init_state(prob)
    return prob, brad.absorb_r2adi(state, prob,
                                 brad.expand_simple(state, prob, 1.0, system))


# ------------------------------------------------------- PrecomputedShifts

def test_precomputed_order_and_pairing():
    # on real data a listed conjugate is consumed with its partner
    src = rc.PrecomputedShifts([1.0, 2 + 1j, 2 - 1j])
    prob = scalar_problem()
    state = brad.init_state(prob)
    assert src.next_shifts(state, prob, batch=1, system=None) == [1 + 0j]
    assert src.next_shifts(state, prob, batch=1, system=None) == [2 + 1j]
    with pytest.raises(ShiftsExhaustedError):
        src.next_shifts(state, prob, batch=1, system=None)


def test_precomputed_pair_takes_one_batch_slot():
    prob = scalar_problem()
    state = brad.init_state(prob)
    src = rc.PrecomputedShifts([1.0, 2 + 1j, 3.0, 4.0])
    assert src.next_shifts(state, prob, batch=3, system=None) == [1 + 0j, 2 + 1j, 3 + 0j]
    assert src.next_shifts(state, prob, batch=3, system=None) == [4 + 0j]
    src = rc.PrecomputedShifts([1.0, 2 + 1j, 2 - 1j, 3.0])
    assert src.next_shifts(state, prob, batch=2, system=None) == [1 + 0j, 2 + 1j]
    assert src.next_shifts(state, prob, batch=2, system=None) == [3 + 0j]
    # a conjugate further on is the same pair: the batch ends before it
    src = rc.PrecomputedShifts([2 + 1j, 3.0, 2 - 1j])
    assert src.next_shifts(state, prob, batch=3, system=None) == [2 + 1j, 3 + 0j]
    assert src.next_shifts(state, prob, batch=3, system=None) == [2 - 1j]


def test_precomputed_pair_puts_positive_imaginary_first():
    # the source emits entries as listed; the expansion solves at the
    # member with Im > 0 and records it first
    src = rc.PrecomputedShifts([2 - 1j, 2 + 1j, 3 - 1j, 4.0])
    prob = random_problem(5, n=6)
    system = system_of(prob)
    state = brad.init_state(prob)
    batch = src.next_shifts(state, prob, batch=2, system=None)
    assert batch == [2 - 1j, 3 - 1j]
    assert src.next_shifts(state, prob, batch=2, system=None) == [4 + 0j]
    block = brad.expand_parallel(state, prob, batch, system)
    assert block.kind == "realified" and not np.iscomplexobj(block.Ztil)
    assert block.poles == [2 + 1j, 2 - 1j, 3 + 1j, 3 - 1j]


def test_precomputed_batching_stops_at_duplicate():
    src = rc.PrecomputedShifts([1.0, 2.0, 2.0, 3.0])
    prob = scalar_problem()
    state = brad.init_state(prob)
    assert src.next_shifts(state, prob, batch=4, system=None) == [1 + 0j, 2 + 0j]
    assert src.next_shifts(state, prob, batch=4, system=None) == [2 + 0j, 3 + 0j]


def test_precomputed_no_pairing_by_default():
    # complex data: conjugates are not paired
    src = rc.PrecomputedShifts([2 + 1j, 2 - 1j])
    prob = random_problem(5, n=4, complex_data=True)
    state = brad.init_state(prob)
    assert src.next_shifts(state, prob, batch=1, system=None) == [2 + 1j]
    assert src.next_shifts(state, prob, batch=1, system=None) == [2 - 1j]


def test_precomputed_rejects_empty_list():
    with pytest.raises(ValueError, match="shift list is empty"):
        rc.PrecomputedShifts([])


def test_precomputed_rejects_bad_shift():
    for bad, match in ((-0.5, "real part must be positive"),
                       (np.inf, "must be finite"),
                       (complex(1.0, np.nan), "must be finite")):
        with pytest.raises(ValueError, match=match):
            rc.PrecomputedShifts([1.0, bad])


# ------------------------------------------------------- adaptive strategy

def test_hamiltonian_scalar_pipeline_step2():
    prob, state = scalar_state_after_step1()
    # Atil = -1 - 0.4 = -1.4, BB* = 1, RR* = 0.04: eigenvalues +-sqrt(2)
    H = projected_hamiltonian(state, prob, l=6, e_factor=None)
    np.testing.assert_allclose(H, [[-1.4, 1.0], [0.04, 1.4]], atol=1e-13)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(H).real),
                               [-np.sqrt(2), np.sqrt(2)], atol=1e-13)
    mu = residual_hamiltonian_shift(state, prob, l=6)
    np.testing.assert_allclose(mu, np.sqrt(2.0), atol=1e-12)


def test_hamiltonian_source_emits_sqrt2():
    prob, state = scalar_state_after_step1()
    system = system_of(prob)
    src = rc.HamiltonianShifts()
    assert abs(src.next_shifts(state, prob, 1, system)[0]
               - np.sqrt(2)) < 1e-12


def test_hamiltonian_bootstrap_admissible():
    prob = random_problem(40, n=20, m=2, p=2)
    mu = residual_hamiltonian_shift(brad.init_state(prob), prob, l=12)
    assert mu.real > 0


def test_hamiltonian_structure():
    prob = random_problem(41, n=25, m=2, p=2)
    system = system_of(prob)
    state = brad.init_state(prob)
    for mu in (1.0, 2.0):
        state = brad.absorb_r2adi(state, prob,
                                brad.expand_simple(state, prob, mu, system))
    H = projected_hamiltonian(state, prob, l=12, e_factor=None)
    assert hamiltonian_defect(H) <= 1e-12 * np.linalg.norm(H)


def test_hamiltonian_converged_state_still_admissible():
    prob, state = scalar_state_after_step1()
    # pretend exact convergence
    state = replace(state, R=np.zeros_like(state.R))
    mu = residual_hamiltonian_shift(state, prob, l=6)
    assert mu.real > 0


def test_hamiltonian_pairs_on_real_problems():
    # the strategy returns one shift, and the expansion realifies its pair
    prob = rotating_problem(30, seed=42)
    system = system_of(prob)
    src = rc.HamiltonianShifts()
    state = brad.init_state(prob)
    saw_pair = False
    for _ in range(8):
        batch = src.next_shifts(state, prob, 1, system)
        assert len(batch) == 1
        block = brad.expand_parallel(state, prob, batch, system)
        if batch[0].imag:
            # either member may be emitted; the block starts with Im > 0
            saw_pair = True
            mu = complex(batch[0].real, abs(batch[0].imag))
            assert block.kind == "realified"
            assert block.poles == [mu, mu.conjugate()]
        state = brad.absorb_r2adi(state, prob, block)
    assert saw_pair
    assert not np.iscomplexobj(state.Z)


def test_hamiltonian_window_limits_basis():
    prob = random_problem(43, n=30, m=1, p=1)
    system = system_of(prob)
    state = brad.init_state(prob)
    for mu in (1.0, 2.0, 3.0, 4.0):
        state = brad.absorb_r2adi(state, prob,
                                brad.expand_simple(state, prob, mu, system))
    H = projected_hamiltonian(state, prob, l=2, e_factor=None)
    assert H.shape == (4, 4)  # 2u with u = min(l, q) = 2
    mu = residual_hamiltonian_shift(state, prob, l=2)
    assert mu.real > 0


def test_default_window_is_2p_columns(monkeypatch):
    # the window is 2p: the same shifts as WindowShifts(2p), and no
    # projected Hamiltonian wider than 2 * 2p = 24 at p = 6
    prob = random_problem(47, n=80, m=1, p=2)
    options = rc.SolverOptions(tol=1e-9)
    default = rc.solve(prob, options, rc.HamiltonianShifts())
    explicit = rc.solve(prob, options, WindowShifts(4))
    assert default.converged
    assert ([r.shifts for r in default.records]
            == [r.shifts for r in explicit.records])

    sizes = []
    projected = shifts_mod.projected_hamiltonian

    def spy(state, problem, l, e_factor=None):
        H = projected(state, problem, l, e_factor)
        sizes.append(H.shape)
        return H

    monkeypatch.setattr(shifts_mod, "projected_hamiltonian", spy)
    prob = random_problem(48, n=120, m=1, p=6)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9), rc.HamiltonianShifts())
    assert res.converged and res.state.q > 24
    assert max(sizes) == (24, 24)


def test_hamiltonian_source_takes_no_settings():
    # the window is 2p by rule, not by option: nothing to set, nothing kept
    assert vars(rc.HamiltonianShifts()) == {}
    with pytest.raises(TypeError):
        rc.HamiltonianShifts(window=6)


def test_shift_strategy_error_when_nothing_admissible(monkeypatch):
    prob = scalar_problem()
    state = brad.init_state(prob)
    monkeypatch.setattr(
        shifts_mod, "projected_hamiltonian",
        lambda state, problem, l, e_factor: np.array([[1.0, 0.0], [0.0, 2.0]]))
    # both candidate shifts -lambda have negative real part
    with pytest.raises(ShiftStrategyError):
        residual_hamiltonian_shift(state, prob, l=6)


def test_hamiltonian_source_factors_e_once_per_e(monkeypatch):
    # solve factors E once, before its first step, whatever the source, and
    # E's factor lives exactly as long as the solve: the source keeps none
    factored = []
    factor_e = shifts_mod.factor_e

    def spy(E):
        f = factor_e(E)
        factored.append(weakref.ref(f))
        return f

    monkeypatch.setattr(shifts_mod, "factor_e", spy)
    prob = random_problem(60, n=40, m=2, p=2, generalized=True)
    src = rc.HamiltonianShifts()
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60), src)
    assert res.converged and len(res.records) > 5
    assert len(factored) == 1 and factored[0]() is None
    # every solve with E factors its own: another E, and a precomputed source
    other = random_problem(61, n=40, m=2, p=2, generalized=True)
    rc.solve(other, rc.SolverOptions(tol=1e-9, max_iter=60), src)
    res = rc.solve(other, rc.SolverOptions(tol=1e-280, max_iter=6),
                   [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    assert len(res.records) == 6
    assert len(factored) == 3 and all(f() is None for f in factored)
    assert vars(src) == {}
    # without E nothing is factored
    plain = random_problem(62, n=40, m=2, p=2)
    rc.solve(plain, rc.SolverOptions(tol=1e-9, max_iter=60), src)
    rc.solve(plain, rc.SolverOptions(tol=1e-280, max_iter=2), [1.0, 2.0])
    assert len(factored) == 3


@pytest.mark.parametrize("n", [120, 90])
def test_one_hamiltonian_source_serves_nested_solves(n):
    # A solve nested in another's callback with the same source used to
    # leave its E's factor to the outer solve: at n = 120 the outer solve
    # then took 8 steps instead of 7 and ended with another Z, and at
    # n = 90 it raised "RHS must have 90 rows, got (120, 4)"
    options = rc.SolverOptions(mode="r2adi")
    prob = random_problem(5, n=120, m=1, p=2, generalized=True)
    alone = rc.solve(prob, options, rc.HamiltonianShifts())
    assert alone.converged
    src = rc.HamiltonianShifts()
    inner = random_problem(6, n=n, m=1, p=2, generalized=True)
    nested = []

    def nest(state, record):
        if record.iter == 2:
            nested.append(rc.solve(inner, options, src))

    shared = rc.solve(prob, options, src, callback=nest)
    assert len(nested) == 1 and nested[0].converged
    for name in ("Z", "R"):
        assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()


def test_reused_hamiltonian_source_sees_e_changed_in_place():
    # A source reused after E changed in place used to keep the old E's
    # factor: 44 steps with first shift 1.48e6, against 33 steps with first
    # shift 4.92e5 for a fresh source.
    n = 600
    A, E = fem1d_pair(n)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((n, 1))
    prob = rc.ProblemSpec(A=A, B=B, C=rng.standard_normal((2, n)), E=E)
    options = rc.SolverOptions(mode="hybrid", tol=1e-9)
    reused = rc.HamiltonianShifts()
    assert rc.solve(prob, options, reused).converged
    prob.E.data *= 3
    again = rc.solve(prob, options, reused)
    fresh = rc.solve(prob, options, rc.HamiltonianShifts())
    assert fresh.converged
    assert again.records[0].shifts == fresh.records[0].shifts
    np.testing.assert_array_equal(again.Z, fresh.Z)


@pytest.mark.parametrize("n, superlu", [(DENSE_LU_BELOW_N - 1, False),
                                         (DENSE_LU_BELOW_N, True)])
def test_e_factor_follows_the_dense_lu_threshold(monkeypatch, n, superlu):
    # E's factor is dense LU below the threshold, as A* - mu E*'s is
    splu_calls = []

    def spy(M, *args, **kwargs):
        splu_calls.append(M.shape)
        return spla.splu(M, *args, **kwargs)

    monkeypatch.setattr(shifts_mod, "spla", SimpleNamespace(splu=spy))
    E = fem1d_pair(n)[1]
    f = shifts_mod.factor_e(E)
    assert splu_calls == ([(n, n)] if superlu else [])
    assert isinstance(f.lu, tuple) is not superlu
    rhs = np.random.default_rng(0).standard_normal((n, 3))
    for block in (rhs, rhs + 1j * rhs[:, ::-1]):
        W = f.solve(block)
        assert np.linalg.norm(E @ W - block) <= 1e-12 * np.linalg.norm(block)


def test_dense_e_from_the_threshold_on_is_factored_by_superlu(monkeypatch):
    # the rule is by size alone: a dense E goes to SuperLU as a sparse one
    # does, and is left as it was
    splu_calls = []

    def spy(M, *args, **kwargs):
        splu_calls.append(M.shape)
        return spla.splu(M, *args, **kwargs)

    monkeypatch.setattr(shifts_mod, "spla", SimpleNamespace(splu=spy))
    n = DENSE_LU_BELOW_N
    E = fem1d_pair(n)[1].toarray(order="F")
    before = E.tobytes()
    f = shifts_mod.factor_e(E)
    assert splu_calls == [(n, n)] and not isinstance(f.lu, tuple)
    assert E.tobytes() == before
    rhs = np.random.default_rng(1).standard_normal((n, 2))
    assert np.linalg.norm(E @ f.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("mode", ["r2adi", "hybrid"])
@pytest.mark.parametrize("generalized", [False, True])
def test_dense_operators_solve_as_their_csr_form(mode, generalized):
    # ProblemSpec stores a dense A and E as CSR, so shift selection and
    # absorption run the same sparse products as on CSR input
    prob = random_problem(5, n=200, m=2, p=2, generalized=generalized)
    dense = rc.ProblemSpec(A=prob.A.toarray(), B=prob.B, C=prob.C,
                           E=None if prob.E is None else prob.E.toarray())
    options = rc.SolverOptions(mode=mode, tol=1e-10, max_iter=60)
    want = rc.solve(prob, options, rc.HamiltonianShifts())
    got = rc.solve(dense, options, rc.HamiltonianShifts())
    assert want.converged
    for name in ("Z", "R"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_singular_e_factor_raises(storage):
    # a singular E is reported by name when it is factored, not later as
    # non-finite entries in the projected Hamiltonian
    E = random_problem(44, n=30, generalized=True).E.tolil()
    E[3, :] = 0.0
    E = E.tocsr() if storage == "sparse" else E.toarray()
    with pytest.raises(ShiftStrategyError, match="mass matrix E is singular"):
        shifts_mod.factor_e(E)


@pytest.mark.parametrize("row, scale", [(3, 0.0), (-1, 1e-30)])
def test_singular_superlu_e_factor_raises(row, scale):
    # from n = DENSE_LU_BELOW_N on SuperLU factors a sparse E: a zero row
    # makes it fail, and its message is passed on; a last row scaled by
    # 1e-30 leaves a negligible last pivot, which the pivot check reports
    E = fem1d_pair(DENSE_LU_BELOW_N)[1].toarray()
    E[row] *= scale
    with pytest.raises(ShiftStrategyError,
                       match="mass matrix E is singular") as info:
        shifts_mod.factor_e(sp.csr_matrix(E))
    assert isinstance(info.value.__cause__, RuntimeError) is (scale == 0.0)


def _states(prob, mode, steps=6):
    """The states of a Hamiltonian-shift solve after each of its first steps."""
    seen = [brad.init_state(prob)]
    rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-280, max_iter=steps),
             rc.HamiltonianShifts(), callback=lambda s, r: seen.append(s))
    return seen


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("generalized", [False, True])
@pytest.mark.parametrize("m", [0, 2])
def test_projected_hamiltonian_matches_zu_formula(complex_data, generalized, m):
    # the feedback term from K equals the one from Z* U: K* E^{-1} = B* Z Z*
    prob = random_problem(70 + m, n=40, m=m, p=2, generalized=generalized,
                          complex_data=complex_data)
    e_factor = None if prob.E is None else shifts_mod.factor_e(prob.E)
    worst = 0.0
    for mode in ("r2adi", "radi"):
        for state in _states(prob, mode):
            H = projected_hamiltonian(state, prob, 4, e_factor)
            ref = zu_projected_hamiltonian(state, prob, 4, e_factor)
            worst = max(worst, np.linalg.norm(H - ref) / np.linalg.norm(ref))
    assert worst <= 1e-13


@pytest.mark.parametrize("generalized", [False, True])
def test_shift_selection_reads_only_the_window(generalized):
    prob = random_problem(74, n=40, m=2, p=1, generalized=generalized)
    state = _states(prob, "r2adi")[-1]
    l = 2
    assert state.q > l
    blind = replace(state, Z=state.Z.copy(), SB=state.SB.copy())
    blind.Z[:, :-l] = np.nan
    blind.SB[:, :-l] = np.nan
    system = system_of(prob, e_factor_of(prob))
    H = projected_hamiltonian(state, prob, l, system.e_factor)
    H_blind = projected_hamiltonian(blind, prob, l, system.e_factor)
    assert np.all(np.isfinite(H_blind))
    np.testing.assert_array_equal(H_blind, H)
    src = WindowShifts(l)
    assert (src.next_shifts(blind, prob, 1, system)
            == src.next_shifts(state, prob, 1, system))


def _random_hamiltonian(rng, u, complex_data):
    def draw(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if complex_data else X

    A, G, Q = draw(u, u), draw(u, 2), draw(2, u)
    return np.block([[A, G @ G.conj().T], [Q.conj().T @ Q, -A.conj().T]])


@pytest.mark.parametrize("complex_data", [False, True])
def test_array_scorer_matches_loop(complex_data):
    rng = np.random.default_rng(75)
    for u in (1, 2, 3, 6, 12):
        for _ in range(40):
            H = _random_hamiltonian(rng, u, complex_data)
            assert shifts_mod._best_shift(H) == loop_best_shift(H)


def test_complex_shift_is_a_ritz_value():
    # the shift is -lambda for an eigenvalue lambda of H, not its conjugate
    rng = np.random.default_rng(76)
    for u in (1, 2, 3, 6, 12):
        for _ in range(40):
            H = _random_hamiltonian(rng, u, complex_data=True)
            mu = shifts_mod._best_shift(H)
            gap = np.min(np.abs(np.linalg.eigvals(H) + mu))
            assert gap <= 1e-12 * np.linalg.norm(H, 2)


def test_array_scorer_clamps_like_loop():
    # diag(-1, -2, -3, 5): the eigenvectors are unit vectors. mu = 1 and 2
    # have q = 0 (score 0), mu = 3 has q* r = 0 (clamped score), -5 is
    # inadmissible. Without mu = 3, the tie at score 0 goes to the smaller
    # real part.
    for H, want in ((np.diag([-1.0, -2.0, -3.0, 5.0]), 3.0),
                    (np.diag([-1.0, -2.0, 5.0, 6.0]), 1.0),
                    (np.diag([-2.0, -1.0, 5.0, 6.0]), 1.0)):
        assert shifts_mod._best_shift(H) == loop_best_shift(H) == want
    for scorer in (shifts_mod._best_shift, loop_best_shift):
        with pytest.raises(ShiftStrategyError, match="no admissible shift"):
            scorer(np.diag([1.0, 2.0, 3.0, 4.0]))
