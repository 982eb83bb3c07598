"""Tests for the top-level iteration driver."""

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
from conftest import (
    RecordingShifts,
    dense_x,
    random_problem,
    rel2,
    scalar_problem,
)


def test_options_validation():
    with pytest.raises(ValueError, match="mode"):
        rc.SolverOptions(mode="nope")
    with pytest.raises(ValueError, match="tol"):
        rc.SolverOptions(tol=0.0)
    with pytest.raises(ValueError, match="parallel_width"):
        rc.SolverOptions(parallel_width=0)


def test_solve_requires_shift_source():
    with pytest.raises(ValueError, match="shift source"):
        rc.solve(scalar_problem(), rc.SolverOptions())


@pytest.mark.parametrize("mode", ["r2adi", "radi", "hybrid"])
def test_scalar_closed_form_all_modes(mode):
    prob = scalar_problem()
    res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-12),
                   [1.0, np.sqrt(2.0)])
    assert res.converged and len(res.records) == 2
    np.testing.assert_allclose(dense_x(res), [[np.sqrt(2) - 1]], atol=1e-10)
    assert res.rel_residual <= 1e-12


def test_relative_residual_fresh_state():
    prob = random_problem(50, n=12, m=1, p=2)
    assert rc.relative_residual(rc.init_state(prob), prob) == 1.0


def test_relative_residual_scalar_step1():
    prob = scalar_problem()
    state = rc.init_state(prob)
    state = rc.absorb_r2adi(state, prob, rc.expand_simple(state, prob, 1.0))
    np.testing.assert_allclose(rc.relative_residual(state, prob), 0.04,
                               atol=1e-14)


def test_relative_residual_scaling_invariance():
    prob = random_problem(51, n=12, m=1, p=1)
    scaled = rc.ProblemSpec(A=prob.A, B=prob.B, C=2.0 * prob.C, E=prob.E)
    r1 = rc.relative_residual(rc.init_state(prob), prob)
    r2 = rc.relative_residual(rc.init_state(scaled), scaled)
    np.testing.assert_allclose(r1, r2, atol=1e-14)


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
        assert abs(rec.total_s - (rec.expansion_s + rec.absorb_s)) <= 1e-6
    assert res.records[-1].rel_residual == res.rel_residual
    assert res.records[-1].subspace_dim == res.state.q


def test_shift_list_and_plain_list_sources():
    prob = scalar_problem()
    a = rc.solve(prob, rc.SolverOptions(tol=1e-12),
                 rc.PrecomputedShifts([1.0, np.sqrt(2)]))
    b = rc.solve(prob, rc.SolverOptions(tol=1e-12), [1.0, np.sqrt(2)])
    np.testing.assert_array_equal(a.Z, b.Z)


def test_parallel_width_consumes_batches():
    prob = random_problem(57, n=30, m=1, p=1)
    shifts = [1.0, 2.0, 4.0, 8.0]
    rec = RecordingShifts(rc.PrecomputedShifts(shifts))
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=10,
                                          parallel_width=2), rec)
    assert [len(b) for b in rec.batches] == [2, 2]
    assert res.state.q == 4


def test_realify_auto_disabled_for_complex_data():
    prob = random_problem(58, n=15, m=1, p=1, complex_data=True)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=2),
                   [1 + 1j, 1 - 1j])
    assert np.iscomplexobj(res.Z)
    assert res.state.q == 2


def test_realify_on_real_data_keeps_storage_real():
    prob = random_problem(59, n=25, m=2, p=1)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=3),
                   [1 + 1j, 1 - 1j, 2.0])
    for name in ("Z", "h", "Hminus", "SB", "R", "K"):
        assert not np.iscomplexobj(getattr(res.state, name)), name
    # the pair counts as one step
    assert len(res.records) == 2 and res.state.q == 3


def test_realify_off_matches_on_sparse():
    # n above the dense threshold: real shifts after a complex pair reach a
    # real sparse factor with a complex residual factor when realify is off
    prob = random_problem(61, n=520, m=2, p=2)
    shifts = [2 + 1j, 2 - 1j, 1.0, 3.5 + 0.8j, 3.5 - 0.8j, 0.7,
              5 + 2j, 5 - 2j, 4.1 + 3j, 4.1 - 3j, 1.3]
    runs = [rc.solve(prob, rc.SolverOptions(tol=1e-280, max_iter=30,
                                            realify=realify), shifts)
            for realify in (True, False)]
    assert [r.state.q for r in runs] == [22, 22]
    assert rel2(dense_x(runs[1]), dense_x(runs[0])) <= 1e-13


def test_generalized_problem_converges():
    prob = random_problem(60, n=40, m=2, p=2, generalized=True)
    res = rc.solve(prob, rc.SolverOptions(tol=1e-9, max_iter=60),
                   rc.HamiltonianShifts())
    assert res.converged
    ref = rc.dense_care(prob)
    assert rel2(dense_x(res), ref.X) <= 1e-6
