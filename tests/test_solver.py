"""Tests for the top-level iteration driver."""

import gc
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
import ricadi.shifted as shifted_mod
import ricadi.shifts as shifts_mod
import ricadi.solver as solver_mod
from conftest import (
    RecordingShifts,
    WindowShifts,
    assert_invariants,
    dense_defect,
    dense_x,
    PERFBENCH,
    fem1d_pair,
    graded_fem1d_pair,
    one_shift_per_step,
    random_problem,
    rel2,
    rotating_problem,
    scalar_problem,
    singular_e_problem,
    system_of,
)
from invariants import brad_residual_check
from ricadi.errors import (
    ExpansionDegenerateError,
    ShiftStrategyError,
    SingularShiftError,
)
from ricadi.kernels import spectral_norm_gram
from ricadi.oracle import residual_defect


def test_options_validation():
    with pytest.raises(ValueError, match="mode"):
        rc.SolverOptions(mode="nope")
    with pytest.raises(ValueError, match="tol"):
        rc.SolverOptions(tol=0.0)
    with pytest.raises(ValueError, match="parallel_width"):
        rc.SolverOptions(parallel_width=0)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_options_reject_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        rc.SolverOptions(max_iter=max_iter)


@pytest.mark.parametrize("value", [0, -3, 1.5, 2.0, "2"])
@pytest.mark.parametrize("name", ["max_iter", "parallel_width"])
def test_counts_must_be_integers_of_at_least_one(name, value):
    with pytest.raises(ValueError, match=name):
        rc.SolverOptions(**{name: value})
    assert getattr(rc.SolverOptions(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("C", [np.zeros((2, 3)), np.full((1, 3), 1e-170)])
def test_solve_rejects_zero_c(C):
    # C* C is zero (the second C underflows in it): nothing to be relative to
    prob = rc.ProblemSpec(A=sp.csr_matrix(-np.eye(3)), B=np.ones((3, 1)), C=C)
    with pytest.raises(ValueError, match="C must not be zero"):
        rc.solve(prob, rc.SolverOptions(), [1.0])


def test_solve_without_shifts_runs_hamiltonian_shifts():
    # no shifts given: solve picks them by the residual Hamiltonian strategy
    options = rc.SolverOptions(tol=1e-9)
    for generalized in (False, True):
        prob = random_problem(52, n=40, m=1, p=2, generalized=generalized)
        default = rc.solve(prob, options)
        explicit = rc.solve(prob, options, rc.HamiltonianShifts())
        assert default.converged and len(default.records) > 2
        for name in ("Z", "R"):
            assert (getattr(default, name).tobytes()
                    == getattr(explicit, name).tobytes())


@pytest.mark.parametrize("mode", ["r2adi", "radi", "hybrid"])
def test_scalar_closed_form_all_modes(mode):
    prob = scalar_problem()
    res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-12),
                   [1.0, np.sqrt(2.0)])
    assert res.converged and len(res.records) == 2
    np.testing.assert_allclose(dense_x(res), [[np.sqrt(2) - 1]], atol=1e-10)
    assert res.rel_residual <= 1e-12


def _norm_cc(prob):
    return spectral_norm_gram(prob.C.conj().T)


def test_relative_residual_fresh_state():
    prob = random_problem(50, n=12, m=1, p=2)
    assert solver_mod.relative_residual(brad.init_state(prob), _norm_cc(prob)) == 1.0


def test_relative_residual_scalar_step1():
    prob = scalar_problem()
    system = system_of(prob)
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0, system))
    np.testing.assert_allclose(
        solver_mod.relative_residual(state, _norm_cc(prob)), 0.04, atol=1e-14)


def test_relative_residual_scaling_invariance():
    prob = random_problem(51, n=12, m=1, p=1)
    scaled = rc.ProblemSpec(A=prob.A, B=prob.B, C=2.0 * prob.C, E=prob.E)
    r1 = solver_mod.relative_residual(brad.init_state(prob), _norm_cc(prob))
    r2 = solver_mod.relative_residual(brad.init_state(scaled), _norm_cc(scaled))
    np.testing.assert_allclose(r1, r2, atol=1e-14)


@pytest.mark.parametrize("generalized", [False, True])
@pytest.mark.parametrize("s", [1e-15, 1e15])
def test_time_scaled_problem_has_the_same_solution(s, generalized):
    # (s A, sqrt(s) B, sqrt(s) C, E) has the Riccati solution of (A, B, C, E).
    # An absolute pivot floor made A* - mu E* look singular at s = 1e-15.
    prob = random_problem(5, n=40, m=1, p=1, generalized=generalized)
    scaled = rc.ProblemSpec(A=s * prob.A, B=np.sqrt(s) * prob.B,
                            C=np.sqrt(s) * prob.C, E=prob.E)
    options = rc.SolverOptions(tol=1e-9)
    ref = rc.solve(prob, options, rc.HamiltonianShifts())
    res = rc.solve(scaled, options, rc.HamiltonianShifts())
    assert ref.converged and res.converged
    assert len(res.records) == len(ref.records)
    assert rel2(dense_x(res), dense_x(ref)) <= 1e-8


def test_lyapunov_rational_factor():
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    prob = rc.ProblemSpec(A=A, B=None, C=np.ones((1, 3)))
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2),
                   [1.0, 2.0])
    # entrywise rational function of the diagonal A: prod (a+s)/(a-s)
    diag = np.array([-1.0, -2.0, -3.0])
    want = np.ones(3)
    for s in (1.0, 2.0):
        want *= (diag + s) / (diag - s)
    np.testing.assert_allclose(res.R[:, 0], want, atol=1e-10)


def test_mode_equivalence_precomputed():
    prob = random_problem(52, n=60, m=2, p=2)
    shifts = list(np.logspace(-0.5, 1.0, 10))
    from ricadi.solver import MODES

    xs = {}
    for mode in MODES:
        res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-280,
                                              max_iter=10), list(shifts))
        xs[mode] = dense_x(res)
    assert rel2(xs["r2adi"], xs["radi"]) <= 1e-8
    assert rel2(xs["r2adi"], xs["hybrid"]) <= 1e-8


def test_exhaustion_message():
    prob = random_problem(53, n=20, m=1, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=50),
                   [1.0, 2.0])
    assert not res.converged
    assert "exhausted" in res.message
    assert len(res.records) == 2


def test_max_iter_message():
    prob = random_problem(54, n=20, m=1, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2),
                   rc.HamiltonianShifts())
    assert not res.converged
    assert "max_iter" in res.message
    assert len(res.records) == 2


def test_callback_sees_every_step():
    prob = random_problem(55, n=20, m=1, p=1)
    seen = []
    rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=3),
             rc.HamiltonianShifts(),
             callback=lambda s, r: seen.append((s.q, r.iter)))
    assert [it for _, it in seen] == [1, 2, 3]
    qs = [q for q, _ in seen]
    assert qs == sorted(qs) and qs[0] >= 1


def test_records_are_consistent():
    prob = random_problem(56, n=30, m=2, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60),
                   rc.HamiltonianShifts())
    assert res.converged
    for rec in res.records:
        assert rec.total_s >= 0.0
        assert rec.shift_s > 0.0 and len(rec.shifts) in (1, 2)
        assert abs(rec.total_s - (rec.shift_s + rec.expansion_s
                                  + rec.absorb_s)) <= 1e-6
    assert res.records[-1].rel_residual == res.rel_residual
    assert res.records[-1].subspace_dim == res.state.q


def test_records_time_shift_selection_apart(monkeypatch):
    # expansion_s excludes the shift source's time, which is shift_s
    class SlowShifts:
        def __init__(self):
            self.inner = rc.PrecomputedShifts([1.0, 2.0, 4.0])

        def next_shifts(self, state, problem, batch, system):
            time.sleep(0.05)
            return self.inner.next_shifts(state, problem, batch, system)

    prob = random_problem(58, n=30, m=1, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=3,
                                          parallel_width=2), SlowShifts())
    assert [r.shifts for r in res.records] == [(1, 2), (4,)]
    for rec in res.records:
        assert rec.shift_s >= 0.05 > rec.expansion_s
        assert rec.total_s >= rec.shift_s + rec.expansion_s + rec.absorb_s - 1e-6


def test_shift_list_and_plain_list_sources():
    prob = scalar_problem()
    a = rc.solve(prob, rc.SolverOptions(tol=1e-12),
                 rc.PrecomputedShifts([1.0, np.sqrt(2)]))
    b = rc.solve(prob, rc.SolverOptions(tol=1e-12), [1.0, np.sqrt(2)])
    np.testing.assert_array_equal(a.Z, b.Z)


def test_precomputed_source_replays_its_list_once_across_solves():
    # the cursor survives a solve: the same instance's second solve goes on
    # where the first stopped, while a plain list starts over every time
    prob = random_problem(59, n=40, m=1, p=1)
    shifts = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0] * 10
    options = rc.SolverOptions(mode="radi")
    src = rc.PrecomputedShifts(shifts)
    first = rc.solve(prob, options, src)
    used = len(first.records)  # real shifts at width 1: one entry a step
    assert first.converged and src.cursor == used < len(shifts)
    second = rc.solve(prob, options, src)
    assert second.records[0].shifts == (shifts[used],) != (shifts[0],)
    for _ in range(2):
        fresh = rc.solve(prob, options, shifts)
        assert fresh.records[0].shifts == (shifts[0],)
        np.testing.assert_array_equal(fresh.Z, first.Z)


def test_parallel_width_consumes_batches():
    prob = random_problem(57, n=30, m=1, p=1)
    shifts = [1.0, 2.0, 4.0, 8.0]
    rec = RecordingShifts(rc.PrecomputedShifts(shifts))
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=10,
                                          parallel_width=2), rec)
    assert [len(b) for b in rec.batches] == [2, 2]
    assert res.state.q == 4


def test_complex_data_solves_each_member_of_a_conjugate_pair():
    prob = random_problem(58, n=15, m=1, p=1, complex_data=True)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2),
                   [1 + 1j, 1 - 1j])
    assert np.iscomplexobj(res.Z)
    assert res.state.q == 2


def test_real_data_with_a_complex_pair_keeps_storage_real():
    prob = random_problem(59, n=25, m=2, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=3),
                   [1 + 1j, 1 - 1j, 2.0])
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        assert not np.iscomplexobj(getattr(res.state, name)), name
    # the pair counts as one step
    assert len(res.records) == 2 and res.state.q == 3


def test_realified_pairs_match_complex_storage_on_sparse():
    # n above the dense threshold: in the complex-storage reference, real
    # shifts after a complex pair reach a real sparse factor with a complex
    # residual factor
    prob = random_problem(61, n=520, m=2, p=2)
    shifts = [2 + 1j, 2 - 1j, 1.0, 3.5 + 0.8j, 3.5 - 0.8j, 0.7,
              5 + 2j, 5 - 2j, 4.1 + 3j, 4.1 - 3j, 1.3]
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=30), shifts)
    ref = one_shift_per_step(prob, shifts)
    assert not np.iscomplexobj(res.Z) and np.iscomplexobj(ref.Z)
    assert res.state.q == ref.q == 22
    assert rel2(dense_x(ref), dense_x(res)) <= 1e-13


class FixedBatches:
    """Shift source that returns the given batches in turn."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def next_shifts(self, state, problem, batch, system):
        return self.batches.pop(0)


def spy_factorize(monkeypatch):
    """Record the shift of every shifted factorization from now on."""
    factored = []
    factorize = shifted_mod.factorize

    def spy(A, E, mu, system):
        factored.append(complex(mu))
        return factorize(A, E, mu, system)

    monkeypatch.setattr(shifted_mod, "factorize", spy)
    return factored


@pytest.mark.parametrize("batches", [
    [[1.0, 2 + 1j, 2 - 1j]],
    # the mixed batch keeps the state real, so the pair after it is
    # realified as well
    [[1.0, 2 + 1j, 2 - 1j], [3 + 0.5j, 3 - 0.5j]],
    # two conjugate pairs in one batch
    [[2 + 1j, 2 - 1j, 3 + 0.5j, 3 - 0.5j]],
])
def test_real_data_batches_keep_every_shift(monkeypatch, batches):
    prob = random_problem(62, n=30, m=1, p=1)
    factored = spy_factorize(monkeypatch)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=len(batches)),
                   FixedBatches(*batches))
    shifts = [mu for b in batches for mu in b]
    assert res.state.q == len(shifts)
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        assert not np.iscomplexobj(getattr(res.state, name)), name
    # one real solve per real shift, one complex solve per conjugate pair
    pairs = sum(complex(mu).imag > 0 for mu in shifts)
    assert len(factored) == len(shifts) - pairs
    assert sum(mu.imag != 0 for mu in factored) == pairs
    ref = one_shift_per_step(prob, shifts)
    assert rel2(dense_x(res), dense_x(ref)) <= 1e-13


def test_unpaired_complex_shift_keeps_real_state_real():
    # a custom source emits 2 + 1j without its conjugate: on real data it
    # is realified with it all the same
    prob = random_problem(62, n=30, m=1, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=1),
                   FixedBatches([1.0, 2 + 1j]))
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        assert not np.iscomplexobj(getattr(res.state, name)), name
    assert res.state.q == 3
    assert res.records[0].shifts == (1, 2 + 1j, 2 - 1j)
    ref = one_shift_per_step(prob, [1.0, 2 + 1j, 2 - 1j])
    assert rel2(dense_x(res), dense_x(ref)) <= 1e-13


@pytest.mark.parametrize("generalized", [False, True])
@pytest.mark.parametrize("shifts", [[1 + 1j, 2.0, 3 + 0.5j], "hamiltonian"])
def test_real_values_in_complex_dtype_solve_as_real_data(generalized, shifts):
    prob = random_problem(64, n=30, m=1, p=2, generalized=generalized)
    cplx = rc.ProblemSpec(*(None if M is None else M.astype(complex)
                            for M in (prob.A, prob.B, prob.C, prob.E)))
    runs = []
    for problem in (prob, cplx):
        source = (rc.HamiltonianShifts() if shifts == "hamiltonian"
                  else rc.PrecomputedShifts(shifts))
        runs.append(rc.solve(problem, rc.SolverOptions(tol=1e-10, max_iter=40),
                             source))
    real, res = runs
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        assert not np.iscomplexobj(getattr(res.state, name)), name
    assert res.state.q == real.state.q
    assert rel2(dense_x(res), dense_x(real)) <= 1e-13


def test_hamiltonian_records_both_members_of_each_pair():
    prob = rotating_problem(30, seed=42)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-10, max_iter=60),
                   rc.HamiltonianShifts())
    pairs = [rec.shifts for rec in res.records if rec.shifts[0].imag]
    assert pairs and not np.iscomplexobj(res.Z)
    for rec in res.records:
        mu = rec.shifts[0]
        assert rec.shifts == ((mu, mu.conjugate()) if mu.imag else (mu,))
    assert res.state.q == sum(len(rec.shifts) for rec in res.records)


def test_records_give_the_expansion_kind(tmp_path):
    prob = random_problem(63, n=30, m=1, p=1)
    shifts = [1.0, 2.0, 4.0, 8.0]
    simple = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2), shifts)
    assert [r.kind for r in simple.records] == ["simple"] * 2
    wide = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2,
                                           parallel_width=2), shifts)
    assert [r.kind for r in wide.records] == ["parallel"] * 2
    # a Hamiltonian shift with Im != 0 on real data is a realified pair
    res = rc.solve(rotating_problem(30, seed=42),
                   rc.SolverOptions(tol=1e-10, max_iter=60), rc.HamiltonianShifts())
    kinds = [r.kind for r in res.records]
    assert kinds == ["realified" if r.shifts[0].imag else "simple"
                     for r in res.records]
    assert "realified" in kinds and "simple" in kinds
    # the log keeps its seven columns
    rc.write_convergence_log(res.records, tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text().splitlines()[0] == (
        "iter,subspace_dim,rel_residual,expansion_s,absorb_s,total_s,shift_s")


def test_empty_shift_list_is_rejected():
    with pytest.raises(ValueError, match="shift list is empty"):
        rc.solve(scalar_problem(), rc.SolverOptions(), [])


def test_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="at least one shift"):
        rc.solve(scalar_problem(), rc.SolverOptions(), FixedBatches([]))


def test_failed_solve_keeps_no_reference_to_the_problem():
    # A* - 2 I is singular, so the second step raises; nothing in the
    # package may keep A (or the matrices formed from it) alive afterwards
    A = sp.diags(np.r_[2.0, -np.arange(1.0, 40.0)]).tocsr()
    prob = rc.ProblemSpec(A=A, B=np.ones((40, 1)), C=np.ones((1, 40)))
    alive = weakref.ref(A)
    with pytest.raises(SingularShiftError):
        rc.solve(prob, rc.SolverOptions(tol=1e-280), [1.0, 2.0, 3.0])
    del prob, A
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("n", [60, 600])  # dense LU of E, then SuperLU
@pytest.mark.parametrize("source", ["precomputed", "hamiltonian"])
def test_singular_e_fails_before_the_first_step(n, source):
    # only A* - mu E* was factored for precomputed shifts, and it is not
    # singular: such a solve ran all 80 steps and reported "max_iter reached"
    prob = singular_e_problem(5, n)
    shifts = (rc.PrecomputedShifts([1, 2, 4, 8] * 20) if source == "precomputed"
              else rc.HamiltonianShifts())
    steps = []
    with pytest.raises(ShiftStrategyError, match="mass matrix E is singular"):
        rc.solve(prob, rc.SolverOptions(mode="radi", max_iter=80), shifts,
                 callback=lambda state, record: steps.append(record))
    assert steps == []


def test_generalized_problem_converges():
    prob = random_problem(60, n=40, m=2, p=2, generalized=True)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60),
                   rc.HamiltonianShifts())
    assert res.converged
    ref = rc.dense_care(prob)
    assert rel2(dense_x(res), ref.X) <= 1e-6


# The three complex-data problems with a mass matrix of the benchmark's
# small-batch workload (same operators, n = 300): a complex block used to
# reach the real factor of E in shift selection and raise TypeError.
@pytest.mark.parametrize("index, mode, m, p", [
    (54, "r2adi", 1, 1), (55, "radi", 2, 2), (56, "hybrid", 0, 1),
])
def test_complex_data_with_real_e_converges(index, mode, m, p):
    prob = random_problem(1000 + 101 * index, n=300, m=m, p=p,
                          generalized=True, complex_data=True)
    res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-9),
                   rc.HamiltonianShifts())
    assert res.converged and res.rel_residual < 1e-9
    assert dense_defect(prob, res) <= 1e-9


@pytest.mark.parametrize("s", range(6))
def test_complex_hamiltonian_solve_takes_no_extra_steps(s):
    # Shifting by the conjugate of the chosen Ritz value instead of the value
    # itself took 37, 13, 13, 20, 13 and 13 steps here; the Ritz value takes 7-8.
    prob = random_problem(100 + s, n=120, m=2, p=2, complex_data=True)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9), rc.HamiltonianShifts())
    assert res.converged and len(res.records) <= 10
    assert dense_defect(prob, res) <= 1e-9


def test_hybrid_records_show_the_switch():
    prob = random_problem(63, n=60, m=1, p=1)
    switch = max(prob.p, min(prob.n // 20, 100))
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-12),
                   rc.HamiltonianShifts())
    q_before = [0] + [r.subspace_dim for r in res.records[:-1]]
    assert [r.closed_loop for r in res.records] == [q >= switch for q in q_before]
    assert not res.records[0].closed_loop and res.records[-1].closed_loop
    assert not any(r.redone for r in res.records)
    for mode, closed in (("r2adi", False), ("radi", True)):
        res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-9),
                       rc.HamiltonianShifts())
        assert all(r.closed_loop == closed for r in res.records)


def test_every_open_loop_step_redone_matches_radi(monkeypatch):
    # with no cancellation allowed, every r2adi step is redone by the
    # closed-loop body: the iterates are those of a radi solve
    prob = random_problem(64, n=40, m=2, p=2)
    shifts = [1.0, 2 + 1j, 2 - 1j, 4.0, 0.5, 8.0]
    radi = rc.solve(prob, rc.SolverOptions(mode="radi", tol=1e-280,
                                           max_iter=5), shifts)
    monkeypatch.setattr(solver_mod, "MAX_GRAM_CANCELLATION", -1.0)
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=1e-280,
                                          max_iter=5), shifts)
    assert all(r.redone and r.closed_loop for r in res.records)
    np.testing.assert_array_equal(res.Z, radi.Z)
    np.testing.assert_array_equal(res.R, radi.R)


def test_degenerate_open_loop_step_is_redone_and_hybrid_stays_closed(monkeypatch):
    prob = random_problem(65, n=200, m=1, p=1)  # hybrid switch at q = 10
    absorb_r2adi = brad.absorb_r2adi

    def failing_third(state, problem, block):
        if state.q == 2:
            raise ExpansionDegenerateError("injected")
        return absorb_r2adi(state, problem, block)

    monkeypatch.setattr(brad, "absorb_r2adi", failing_third)
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-280,
                                          max_iter=6),
                   [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert [r.redone for r in res.records] == [False, False, True] + [False] * 3
    assert [r.closed_loop for r in res.records] == [False, False] + [True] * 4
    assert_invariants(res.state, prob)


def _solve_corrupting_last_step(corrupt):
    # corrupt writes into the solve's own (frozen) state's arrays in place
    prob = random_problem(66, n=30, m=1, p=1)

    def callback(state, record):
        if record.rel_residual < 1e-9:  # the last step
            corrupt(state)

    res = rc.solve(prob, rc.SolverOptions(tol=1e-9), rc.HamiltonianShifts(),
                   callback=callback)
    assert res.rel_residual < 1e-9
    return prob, res


def test_corrupted_residual_factor_is_not_reported_converged():
    # after the last step R R* grows by ~1e-6 ||C* C||: the Gram residual is
    # not formed again, but the answer's own residual defect reads ~1e-6
    def corrupt(state):
        state.R[...] += 1e-3

    prob, res = _solve_corrupting_last_step(corrupt)
    assert not res.converged
    defect = residual_defect(prob, res.Z, res.R)
    assert f"residual defect {defect:.2e}" in res.message
    exact = dense_defect(prob, res)
    assert 0.5 * exact <= defect <= exact * (1 + 1e-9)


def test_corrupted_hminus_alone_is_reported_converged():
    # Z and R stay right, so the answer is right whatever the state's q-by-q
    # Lyapunov identity reads
    def corrupt(state):
        state.Hminus[...] += 1e-6 * np.eye(state.q)

    prob, res = _solve_corrupting_last_step(corrupt)
    assert brad_residual_check(res.state, prob)["lyap_identity"] > 1e-8
    assert res.converged, res.message
    assert dense_defect(prob, res) <= 1e-11


class _TopTwoHamiltonianShifts:
    """The two best admissible Ritz values of one 3p-window projection, for
    real data.

    Ranked as shifts._best_shift ranks them; a conjugate pair counts once.
    On the input below its trajectory drifts the q-by-q Lyapunov identity
    while Z and R stay right.
    """

    def next_shifts(self, state, problem, batch, system):
        H = shifts_mod.projected_hamiltonian(state, problem, 3 * problem.p,
                                             system.e_factor)
        w, V = np.linalg.eig(H)
        V = V / np.linalg.norm(V, axis=0)
        r, qv = np.split(V, 2)
        qn = np.linalg.norm(qv, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.minimum(qn**2 / np.abs(np.sum(qv.conj() * r, axis=0)), 1e12)
        score[qn == 0] = 0.0
        ok = w.real < 0
        mus, score = -w[ok], score[ok]
        out = []
        for mu in mus[np.lexsort((-mus.imag, -mus.real, np.abs(mus.imag), score))[::-1]]:
            mu = complex(mu.real, 0.0) if abs(mu.imag) <= 1e-14 * abs(mu.real) else complex(mu)
            if not any(min(abs(mu - t), abs(mu.conjugate() - t)) <= 1e-8 * abs(t)
                       for t in out):
                out.append(mu)
        return out[:2]


def test_right_answer_with_a_drifted_lyapunov_identity_is_reported_converged(
        monkeypatch):
    # Instance 2 of the benchmark's cd2d-adaptive workload at seed 302, two
    # Hamiltonian shifts per step: at step 10 (shifts 48440 and 48278 +-
    # 24.1i) the state's Lyapunov identity defect jumps from 3e-13 to about
    # 1e-5 (9e-6 to 1.2e-5, by BLAS threads), which a gate on it would
    # reject, yet the answer's residual defect stays near 1e-12
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    from workloads import build_inputs

    entry = build_inputs("cd2d-adaptive", 302)[2]
    prob = rc.ProblemSpec(A=entry["A"], B=entry["B"], C=entry["C"])
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, parallel_width=2),
                   _TopTwoHamiltonianShifts())
    assert any(r.kind == "parallel" for r in res.records)
    assert brad_residual_check(res.state, prob)["lyap_identity"] > 1e-8
    assert res.converged, res.message
    assert checks.matfree_defect(prob, res.Z, res.R) <= 1e-11


def _fem1d_problem(n, p, rng):
    A, E = fem1d_pair(n)
    return rc.ProblemSpec(A=A, B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((p, n)), E=E)


def test_open_loop_cancellation_is_redone_small():
    # With a window of 36 = 6p columns, one open-loop step of this solve
    # (step 8, q = 42) corrects its block with ||Y12* Y12|| / lambda_min(G) =
    # 3.9e8; absorbed as it is, it leaves the converged factor with a dense
    # defect of 3e-11 instead of 5e-14. At the default 2p window the solve
    # takes 29 steps, no step of this input cancels by more than 3.6e2, and
    # nothing would be redone.
    prob = _fem1d_problem(499, 6, np.random.default_rng(340))
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=1e-9),
                   WindowShifts(36))
    assert res.converged
    assert dense_defect(prob, res) <= 1e-11
    assert any(r.redone for r in res.records)


def test_open_loop_cancellation_is_redone_fem1d_3000(monkeypatch):
    # The input of instance 5 of the benchmark's fem1d-mass-hybrid workload
    # at seed 215, on its 6p-window trajectory (36 columns). Step 9 (q = 48,
    # mu = 128.5) loses 13 digits to the open-loop correction's cancellation
    # (1.6e13) and is redone: the solve converges in 43 steps at q = 276 with
    # a residual defect of 5.0e-14. Without the redo its Gram residual still
    # drops below tol, but the answer's residual defect reads 9.9e-8: solve
    # reports it unconverged, and only the redo turns it into a right answer.
    # At the default 2p window step 10 (q = 54, mu = 48.2 +- 8.0i) cancels by
    # 1.8e6 and is redone (36 steps, q = 252, defect 1.4e-13), but without
    # the redo that solve is still correct (defect 1.6e-13).
    prob = _fem1d_problem(3000, 6, np.random.default_rng([215, 1, 5]))
    options = rc.SolverOptions(mode="hybrid", tol=1e-9)
    res = rc.solve(prob, options, WindowShifts(36))
    assert res.converged
    # checked with the benchmark's own residual check, as the workload is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    assert checks.matfree_defect(prob, res.Z, res.R) <= 1e-11
    first = next(r.iter for r in res.records if r.redone)
    # hybrid stays closed-loop from the first redone step on
    assert all(r.closed_loop for r in res.records[first - 1:])

    monkeypatch.setattr(solver_mod, "MAX_GRAM_CANCELLATION", np.inf)
    res = rc.solve(prob, options, WindowShifts(36))
    assert res.rel_residual < options.tol and not any(r.redone for r in res.records)
    assert not res.converged
    assert "residual defect" in res.message
    assert checks.matfree_defect(prob, res.Z, res.R) > 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_r2adi_converges_correctly_on_graded_fem1d(seed):
    # On this graded mesh r2adi used to report convergence with a dense
    # residual defect of 8.2e-8 (seed 0) and 1.2e-8 (seed 1), while rho and
    # the Lyapunov identity stayed small; a correct solve reads ~2e-14.
    n = 400
    A, E = graded_fem1d_pair(n)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, 1))
    prob = rc.ProblemSpec(A=A, B=B, C=rng.standard_normal((6, n)), E=E)
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=1e-9),
                   rc.HamiltonianShifts())
    assert res.converged
    assert dense_defect(prob, res) <= 1e-11
