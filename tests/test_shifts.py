"""Tests for shift sources: precomputed replay and the adaptive strategy."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ricadi as rc
import ricadi.shifts as shifts_mod
from conftest import random_problem, scalar_problem
from ricadi.errors import ShiftsExhaustedError, ShiftStrategyError
from ricadi.shifts import projected_hamiltonian


def hamiltonian_defect(H):
    """|| JH - (JH)* || for J = [[0, I], [-I, 0]]; zero iff H is Hamiltonian."""
    u = H.shape[0] // 2
    J = np.block([[np.zeros((u, u)), np.eye(u)], [-np.eye(u), np.zeros((u, u))]])
    JH = J @ H
    return float(np.linalg.norm(JH - JH.conj().T))


def scalar_state_after_step1():
    prob = scalar_problem()
    state = rc.init_state(prob)
    return prob, rc.absorb_r2adi(state, prob,
                                 rc.expand_simple(state, prob, 1.0))


# ------------------------------------------------------- PrecomputedShifts

def test_precomputed_order_and_pairing():
    src = rc.PrecomputedShifts([1.0, 2 + 1j, 2 - 1j])
    prob = scalar_problem()
    state = rc.init_state(prob)
    assert src.next_shifts(state, prob, batch=1) == [1 + 0j]
    assert src.next_shifts(state, prob, batch=1) == [2 + 1j, 2 - 1j]
    with pytest.raises(ShiftsExhaustedError):
        src.next_shifts(state, prob, batch=1)


def test_precomputed_pair_starts_own_batch():
    src = rc.PrecomputedShifts([1.0, 2 + 1j, 2 - 1j, 3.0])
    prob = scalar_problem()
    state = rc.init_state(prob)
    assert src.next_shifts(state, prob, batch=4) == [1 + 0j]
    assert src.next_shifts(state, prob, batch=4) == [2 + 1j, 2 - 1j]
    assert src.next_shifts(state, prob, batch=4) == [3 + 0j]


def test_precomputed_pair_puts_positive_imaginary_first():
    src = rc.PrecomputedShifts([2 - 1j, 2 + 1j, 3 - 1j, 4.0])
    prob = scalar_problem()
    state = rc.init_state(prob)
    assert src.next_shifts(state, prob, batch=2) == [2 + 1j, 2 - 1j]
    # an entry without its conjugate next to it is still emitted as a pair
    assert src.next_shifts(state, prob, batch=2) == [3 + 1j, 3 - 1j]
    assert src.next_shifts(state, prob, batch=2) == [4 + 0j]


def test_precomputed_batching_stops_at_duplicate():
    src = rc.PrecomputedShifts([1.0, 2.0, 2.0, 3.0])
    prob = scalar_problem()
    state = rc.init_state(prob)
    assert src.next_shifts(state, prob, batch=4) == [1 + 0j, 2 + 0j]
    assert src.next_shifts(state, prob, batch=4) == [2 + 0j, 3 + 0j]


def test_precomputed_no_pairing_by_default():
    # complex data: conjugates are not paired
    src = rc.PrecomputedShifts([2 + 1j, 2 - 1j])
    prob = random_problem(5, n=4, complex_data=True)
    state = rc.init_state(prob)
    assert src.next_shifts(state, prob, batch=1) == [2 + 1j]
    assert src.next_shifts(state, prob, batch=1) == [2 - 1j]


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
    H = projected_hamiltonian(state, prob, l=6)
    np.testing.assert_allclose(H, [[-1.4, 1.0], [0.04, 1.4]], atol=1e-13)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(H).real),
                               [-np.sqrt(2), np.sqrt(2)], atol=1e-13)
    mu = rc.residual_hamiltonian_shift(state, prob, l=6)
    np.testing.assert_allclose(mu, np.sqrt(2.0), atol=1e-12)


def test_hamiltonian_source_emits_sqrt2():
    prob, state = scalar_state_after_step1()
    src = rc.HamiltonianShifts()
    assert abs(src.next_shifts(state, prob)[0] - np.sqrt(2)) < 1e-12


def test_hamiltonian_bootstrap_admissible():
    prob = random_problem(40, n=20, m=2, p=2)
    mu = rc.residual_hamiltonian_shift(rc.init_state(prob), prob, l=12)
    assert mu.real > 0


def test_hamiltonian_structure():
    prob = random_problem(41, n=25, m=2, p=2)
    state = rc.init_state(prob)
    for mu in (1.0, 2.0):
        state = rc.absorb_r2adi(state, prob,
                                rc.expand_simple(state, prob, mu))
    H = projected_hamiltonian(state, prob, l=12)
    assert hamiltonian_defect(H) <= 1e-12 * np.linalg.norm(H)


def test_hamiltonian_converged_state_still_admissible():
    prob, state = scalar_state_after_step1()
    state.R = np.zeros_like(state.R)  # pretend exact convergence
    mu = rc.residual_hamiltonian_shift(state, prob, l=6)
    assert mu.real > 0


def test_hamiltonian_pairs_on_real_problems():
    # non-normal real problem whose residual Hamiltonian has complex modes
    rng = np.random.default_rng(42)
    n = 30
    import scipy.sparse as sp
    J = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        J[i, i] = J[i + 1, i + 1] = -0.3 - 0.1 * i
        J[i, i + 1] = 2.0 + i
        J[i + 1, i] = -(2.0 + i)
    A = sp.csr_matrix(J + 0.05 * rng.standard_normal((n, n))
                      - 0.5 * np.eye(n))
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((1, n)))
    src = rc.HamiltonianShifts()
    state = rc.init_state(prob)
    saw_pair = False
    for _ in range(8):
        batch = src.next_shifts(state, prob)
        if len(batch) == 2:
            saw_pair = True
            assert batch[1] == batch[0].conjugate()
            assert batch[0].imag > 0
            block = rc.expand_realified(state, prob, batch[0])
        else:
            block = rc.expand_simple(state, prob, batch[0])
        state = rc.absorb_r2adi(state, prob, block)
    assert saw_pair
    assert not np.iscomplexobj(state.Z)


def test_hamiltonian_window_limits_basis():
    prob = random_problem(43, n=30, m=1, p=1)
    state = rc.init_state(prob)
    for mu in (1.0, 2.0, 3.0, 4.0):
        state = rc.absorb_r2adi(state, prob,
                                rc.expand_simple(state, prob, mu))
    H = projected_hamiltonian(state, prob, l=2)
    assert H.shape == (4, 4)  # 2u with u = min(l, q) = 2
    mu = rc.residual_hamiltonian_shift(state, prob, l=2)
    assert mu.real > 0


def test_shift_strategy_error_when_nothing_admissible(monkeypatch):
    prob = scalar_problem()
    state = rc.init_state(prob)
    monkeypatch.setattr(
        shifts_mod, "projected_hamiltonian",
        lambda state, problem, l: np.array([[1.0, 0.0], [0.0, 2.0]]))
    # both candidate shifts -lambda have negative real part
    with pytest.raises(ShiftStrategyError):
        rc.residual_hamiltonian_shift(state, prob, l=6)


def test_hamiltonian_source_factors_e_once_per_e(monkeypatch):
    factored = []

    def spy(M, *args, **kwargs):
        factored.append(M.shape)
        return spla.splu(M, *args, **kwargs)

    monkeypatch.setattr(shifts_mod, "spla", SimpleNamespace(splu=spy))
    prob = random_problem(60, n=40, m=2, p=2, generalized=True)
    src = rc.HamiltonianShifts()
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60), src)
    assert res.converged and len(res.records) > 5
    assert len(factored) == 1
    # the factor is kept for the E object last seen: another E is factored
    other = random_problem(61, n=40, m=2, p=2, generalized=True)
    rc.solve(other, rc.SolverOptions(tol=1e-9, max_iter=60), src)
    assert len(factored) == 2


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_real_e_factor_solves_complex_block(storage):
    # complex data with a real mass matrix sends complex blocks to E's factor
    prob = random_problem(44, n=30, generalized=True)
    E = prob.E if storage == "sparse" else prob.E.toarray()
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    got = shifts_mod.factor_e(E)(rhs)
    np.testing.assert_allclose(got, np.linalg.solve(prob.E.toarray(), rhs),
                               atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_singular_e_factor_raises(storage):
    # a singular E is reported by name when it is factored, not later as
    # non-finite entries in the projected Hamiltonian
    E = random_problem(44, n=30, generalized=True).E.tolil()
    E[3, :] = 0.0
    E = E.tocsr() if storage == "sparse" else E.toarray()
    with pytest.raises(ShiftStrategyError, match="mass matrix E is singular"):
        shifts_mod.factor_e(E)
