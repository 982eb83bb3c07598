"""The benchmark's outside-in tracer must find every ricadi hook it needs.

perfbench/ looks up ricadi's layer functions by module attribute; a rename
would turn its per-layer metrics into nulls without failing a run.
"""

import ricadi as rc
from conftest import PERFBENCH, random_problem


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

    prob = random_problem(67, n=40, m=1, p=2, generalized=True)
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
    reported = layers.mark_absent(values, t.missing)
    assert [k for k in values if reported[k] is None] == []
