"""The benchmark's outside-in tracer must find every ricadi hook it needs.

perfbench/ looks up ricadi's layer functions by module attribute; a rename
would turn its per-layer metrics into nulls without failing a run.
"""

import numpy as np

import ricadi as rc
from conftest import PERFBENCH, fem1d_pair, random_problem
from ricadi.shifted import DENSE_LU_BELOW_N


def test_trace_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    t = tracer.Tracer()
    try:
        layers.install(t)
        layers.install_problems(t)
        assert t.missing == set()
    finally:
        t.restore()


def test_traced_hamiltonian_solve_with_e(monkeypatch):
    # the per-layer metrics of a traced solve, as the benchmark computes them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    # E is factored by SuperLU, through the hooked shifts.spla.splu, only
    # from n = DENSE_LU_BELOW_N on
    prob = random_problem(67, n=DENSE_LU_BELOW_N, m=1, p=2, generalized=True)
    source = rc.HamiltonianShifts()
    t = tracer.Tracer()
    try:
        layers.install(t)
        t.wrap(source, "next_shifts", "shifts.next_shifts")
        with t.span("solver.solve"):
            res = rc.solve(prob, rc.SolverOptions(mode="hybrid", tol=1e-9), source)
    finally:
        t.restore()
    assert res.converged and t.missing == set()
    values = layers.solve_metrics(t.spans, state_mb=0.0)
    assert values["shifts.e_factor_count"] == 1
    assert values["shifts.select_calls"] == len(res.records) > 1
    assert values["shifted.factorize_calls"] == len(res.records)
    # a kernel inlined or bound under another name would read 0 here
    for kernel in ("sylvester", "lyapunov", "cholesky"):
        assert values[f"kernels.{kernel}_calls"] > 0, kernel
    reported = layers.mark_absent(values, t.missing)
    assert [k for k in values if reported[k] is None] == []


def test_traced_factors_are_keyed_by_a_and_shift(monkeypatch):
    # the tracer keys each shifted factor on (id(A), mu), from factorize's
    # first and third arguments: 4 real shifts replayed 3 times read as 4
    # distinct shifts, each factored 3 times
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    A, E = fem1d_pair(DENSE_LU_BELOW_N)
    rng = np.random.default_rng(68)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((A.shape[0], 1)),
                          C=rng.standard_normal((2, A.shape[0])), E=E)
    shifts = [10.0, 100.0, 1e3, 1e4] * 3
    t = tracer.Tracer()
    try:
        layers.install(t)
        with t.span("solver.solve"):
            res = rc.solve(prob, rc.SolverOptions(mode="radi", tol=1e-280,
                                                  max_iter=12), shifts)
    finally:
        t.restore()
    assert len(res.records) == 12 and t.missing == set()
    values = layers.solve_metrics(t.spans, state_mb=0.0)
    assert values["shifted.factorize_calls"] == 12
    assert values["shifted.distinct_shifts"] == 4
    assert values["shifted.refactor_ratio"] == 3
