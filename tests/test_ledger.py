"""How many LU factorizations and factored solves one solve makes.

Every LU is made by shifted.Factor's constructor and every factored solve is
a Factor.solve, so counting the two counts that work of a solve exactly:

- LUs = expansions + 1 with E: one factor of A* - mu E* per expansion, one
  of the SMW capacitance per closed-loop expansion (m = 1 here), and E's;
- solves = expansions, plus one solve with E's factor per step when
  HamiltonianShifts projects with E.

Here expansions = steps + closed-loop steps + redone steps: a redone step
expands twice, open-loop and then closed-loop. A change that factors a
shift twice, or solves with E twice a step, breaks the count.
"""

import numpy as np
import pytest

import ricadi as rc
import ricadi.shifted as shifted_mod
import ricadi.solver as solver_mod
from conftest import fem1d_pair, random_problem

SHIFT_LIST = [float(s) for s in np.geomspace(0.5, 5e4, 12)] * 2


def _problem(n, with_e):
    if n < shifted_mod.DENSE_LU_BELOW_N:
        return random_problem(80, n=n, m=1, p=2, generalized=with_e)
    A, E = fem1d_pair(n)
    rng = np.random.default_rng(82)
    return rc.ProblemSpec(A=A, B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((2, n)), E=E if with_e else None)


@pytest.fixture
def ledger(monkeypatch):
    """Counts of Factor constructions and Factor.solve calls while it is live."""
    counts = {"lu": 0, "solve": 0}
    init, solve = shifted_mod.Factor.__init__, shifted_mod.Factor.solve

    def counting_init(self, *args, **kwargs):
        counts["lu"] += 1
        init(self, *args, **kwargs)

    def counting_solve(self, RHS):
        counts["solve"] += 1
        return solve(self, RHS)

    monkeypatch.setattr(shifted_mod.Factor, "__init__", counting_init)
    monkeypatch.setattr(shifted_mod.Factor, "solve", counting_solve)
    return counts


def _assert_ledger(ledger, prob, res, hamiltonian):
    steps = len(res.records)
    closed = sum(r.closed_loop for r in res.records)
    expansions = steps + closed + sum(r.redone for r in res.records)
    with_e = prob.E is not None
    assert ledger["lu"] == expansions + with_e
    assert ledger["solve"] == expansions + (steps if hamiltonian and with_e else 0)
    return steps, closed


@pytest.mark.parametrize("mode", ["r2adi", "radi", "hybrid"])
@pytest.mark.parametrize("with_e", [False, True], ids=["no-E", "E"])
@pytest.mark.parametrize("n", [60, 600])
@pytest.mark.parametrize("source", ["hamiltonian", "precomputed"])
def test_factorizations_and_solves_per_solve(ledger, source, n, with_e, mode):
    prob = _problem(n, with_e)
    hamiltonian = source == "hamiltonian"
    shifts = rc.HamiltonianShifts() if hamiltonian else SHIFT_LIST
    res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-9, max_iter=20),
                   shifts)
    steps, closed = _assert_ledger(ledger, prob, res, hamiltonian)
    # each body is counted: hybrid runs both
    low, high = {"r2adi": (0, 0), "radi": (steps, steps),
                 "hybrid": (1, steps - 1)}[mode]
    assert steps > 1 and low <= closed <= high


def test_redone_steps_expand_twice(ledger, monkeypatch):
    # with no cancellation allowed every r2adi step is redone closed-loop
    monkeypatch.setattr(solver_mod, "MAX_GRAM_CANCELLATION", -1.0)
    prob = _problem(60, True)
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=1e-9),
                   rc.HamiltonianShifts())
    assert res.converged and all(r.redone for r in res.records)
    steps, _ = _assert_ledger(ledger, prob, res, True)
    assert (ledger["lu"], ledger["solve"]) == (3 * steps + 1, 4 * steps)

