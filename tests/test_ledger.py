"""How much work of each kind one solve does.

Every LU is made by shifted.Factor's constructor and every factored solve is
a Factor.solve, so counting the two counts that work of a solve exactly:

- LUs = expansions + 1 with E: one factor of A* - mu E* per expansion, one
  of the SMW capacitance per closed-loop expansion (m = 1 here), and E's;
- solves = expansions, plus one solve with E's factor per step when
  HamiltonianShifts projects with E.

Here expansions = steps + closed-loop steps + redone steps: a redone step
expands twice, open-loop and then closed-loop. A change that factors a
shift twice, or solves with E twice a step, breaks the count. At width 2 a
step's expansion makes one shifted solve per slot of its batch, a realified
pair's two poles sharing one, and every count of an expansion above counts
once per such solve.

B is viewed as an array that counts the matrix products it takes part in,
B* included:

- one B* Ztil per absorption, and absorptions = steps + redone steps;
- two per closed-loop expansion, in the SMW solve (B* N and B* L);
- two per step when HamiltonianShifts projects (B K* EU and B* U);
- one more, Z* B, when the loop ends below tol and residual_defect checks.

The absorption kernels are counted as brad calls them: Lyapunov and
Cholesky once per absorption, Sylvester once per open-loop absorption, that
is steps - closed-loop steps + redone steps.

A and E are viewed as CSR matrices that count their products with blocks of
n rows, their conjugate transposes' included:

- A: one A EU per step when HamiltonianShifts projects;
- E: one E* Zhat per absorption, when E is given;
- each: six more, when residual_defect checks (A Q and A* W, E Q and E* W,
  in each of its three power steps).

A* and E* are assembled once per solve, in its one shifted.ShiftedSystem.
From n = 500 on the system orders their joint pattern once, so a solve makes
one SuperLU MMD_AT_PLUS_A call (orderings), and below none; it places A's
and E's entries into that pattern once, and no scipy copy of A or E (copy,
conj, astype, scaling) is ever made.

No step calls scipy.linalg's validating wrappers of a single LAPACK call,
WRAPPERS: a dense Factor.solve calls getrs itself, brad's right divisions
by the Gram's Cholesky factor call trtrs, and an expansion builds D without
block_diag, so each reads 0. A step that went through them would call
lu_solve once per dense Factor.solve, solve_triangular 5 times per
absorption and block_diag once per expansion.
"""

import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import ricadi as rc
import ricadi.brad as brad
import ricadi.shifted as shifted_mod
import ricadi.solver as solver_mod
from conftest import fem1d_pair, random_problem

SHIFT_LIST = [float(s) for s in np.geomspace(0.5, 5e4, 12)] * 2
# at width 2 the pair and 0.5 fill the first batch: one realified solve and
# one real one
PAIRED_LIST = [3 + 4j, 3 - 4j] + SHIFT_LIST
TOL = 1e-9
KERNELS = ("cholesky_upper", "solve_lyapunov_small", "solve_sylvester_small")
WRAPPERS = ("lu_solve", "solve_triangular", "block_diag")
_TALLY = threading.Lock()


def _tally(counts, key, k=1):
    """counts[key] += k, under a lock: a width-2 step counts from its threads."""
    with _TALLY:
        counts[key] += k


def _problem(n, with_e, ledger):
    """The problem, its B viewed as an array that counts products in ledger."""
    if n < shifted_mod.DENSE_LU_BELOW_N:
        prob = random_problem(80, n=n, m=1, p=2, generalized=with_e)
    else:
        A, E = fem1d_pair(n)
        rng = np.random.default_rng(82)
        prob = rc.ProblemSpec(A=A, B=rng.standard_normal((n, 1)),
                              C=rng.standard_normal((2, n)),
                              E=E if with_e else None)

    class CountedB(np.ndarray):
        # a product is a plain array; B's conjugate is B still
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, CountedB) else x
                     for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is np.matmul:
                _tally(ledger, "B")
            return out.view(CountedB) if ufunc is np.conjugate else out

    prob.B = prob.B.view(CountedB)
    prob.A = _counted_sparse(prob.A, ledger, "A")
    if prob.E is not None:
        prob.E = _counted_sparse(prob.E, ledger, "E")
    return prob


def _counted_sparse(M, ledger, key):
    """M as a CSR view that counts in ledger[key] its products with blocks of
    n rows, and the entry arrays made from it in ledger["copies"]; its
    conjugate and transpose count too."""

    class Counted:
        def _matmul_dispatch(self, other):
            if np.ndim(other) and np.shape(other)[0] == self.shape[1]:
                _tally(ledger, key)
            return super()._matmul_dispatch(other)

        def _with_data(self, data, copy=True):
            # every same-pattern result (copy, conj, astype, scaling) is
            # formed here; one with new or copied entries counts
            if copy or data is not self.data:
                _tally(ledger, "copies")
            return super()._with_data(data, copy)

        def transpose(self, axes=None, copy=False):
            return TRANSPOSED[type(self)](super().transpose(axes, copy))

    class CSR(Counted, sp.csr_matrix):
        pass

    class CSC(Counted, sp.csc_matrix):
        pass

    TRANSPOSED = {CSR: CSC, CSC: CSR}
    return CSR(M)


def _count(monkeypatch, counts, key, owner, name):
    """Count calls of owner.name in counts[key] while the test runs."""
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        _tally(counts, key)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def ledger(monkeypatch):
    """Counts of Factor constructions and solves, products with B, A and E,
    copies of A's and E's entries, ShiftedSystems, SuperLU orderings by
    minimum degree on M* + M, the absorption kernels brad calls and calls of
    scipy.linalg's WRAPPERS, while it is live."""
    counts = dict.fromkeys(("lu", "solve", "B", "A", "E", "copies", "systems",
                            "orderings") + KERNELS + WRAPPERS, 0)
    spla = shifted_mod.spla

    def superlu(name):
        def called(M, **kwargs):
            _tally(counts, "orderings",
                   kwargs.get("permc_spec") == "MMD_AT_PLUS_A")
            return getattr(spla, name)(M, **kwargs)
        return called

    monkeypatch.setattr(shifted_mod, "spla", SimpleNamespace(
        splu=superlu("splu"), spilu=superlu("spilu")))
    _count(monkeypatch, counts, "lu", shifted_mod.Factor, "__init__")
    _count(monkeypatch, counts, "systems", shifted_mod.ShiftedSystem, "__init__")
    _count(monkeypatch, counts, "solve", shifted_mod.Factor, "solve")
    for name in KERNELS:
        _count(monkeypatch, counts, name, brad, name)
    for name in WRAPPERS:
        _count(monkeypatch, counts, name, sla, name)
    return counts


def _solves(record):
    """The shifted solves of one expansion of a step on real data: one per
    batch slot, a realified pair's two poles sharing one."""
    return len({complex(mu.real, abs(mu.imag)) for mu in record.shifts})


def _assert_ledger(ledger, prob, res, hamiltonian):
    steps = len(res.records)
    closed = sum(r.closed_loop for r in res.records)
    redone = sum(r.redone for r in res.records)
    # shifted solves of the closed-loop expansions, and of all expansions
    closed_solves = sum(_solves(r) for r in res.records if r.closed_loop)
    solves = closed_solves + sum(_solves(r) * (1 + r.redone) for r in res.records)
    with_e = prob.E is not None
    assert ledger["lu"] == solves + with_e
    assert ledger["solve"] == solves + (steps if hamiltonian and with_e else 0)
    checked = res.records[-1].rel_residual < TOL
    assert ledger["B"] == (steps + redone + 2 * closed_solves
                           + (2 * steps if hamiltonian else 0) + checked)
    assert (ledger["cholesky_upper"] == ledger["solve_lyapunov_small"]
            == steps + redone)
    assert ledger["solve_sylvester_small"] == steps - closed + redone
    assert ledger["A"] == (steps if hamiltonian else 0) + 6 * checked
    assert ledger["E"] == (steps + redone + 6 * checked if with_e else 0)
    assert (ledger["systems"], ledger["copies"]) == (1, 0)
    assert ledger["orderings"] == (prob.A.shape[0] >= shifted_mod.DENSE_LU_BELOW_N)
    assert [ledger[name] for name in WRAPPERS] == [0, 0, 0]
    return steps, closed


@pytest.mark.parametrize("mode", ["r2adi", "radi", "hybrid"])
@pytest.mark.parametrize("with_e", [False, True], ids=["no-E", "E"])
@pytest.mark.parametrize("n", [60, 600])
@pytest.mark.parametrize("source", ["hamiltonian", "precomputed", "paired"])
def test_factorizations_and_solves_per_solve(ledger, source, n, with_e, mode):
    prob = _problem(n, with_e, ledger)
    hamiltonian = source == "hamiltonian"
    shifts = (rc.HamiltonianShifts() if hamiltonian
              else PAIRED_LIST if source == "paired" else SHIFT_LIST)
    width = 2 if source == "paired" else 1
    res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=TOL, max_iter=20,
                                          parallel_width=width), shifts)
    steps, closed = _assert_ledger(ledger, prob, res, hamiltonian)
    if source == "paired":
        assert (res.records[0].kind, _solves(res.records[0])) == ("realified", 2)
    # no step is redone but the paired list's step 7 at n = 600 with E, whose
    # batch repeats the pole 0.5, where the open-loop bodies run
    redone = int(source == "paired" and n == 600 and with_e and mode != "radi")
    assert sum(r.redone for r in res.records) == redone
    # each body is counted: hybrid runs both, r2adi the closed-loop one only
    # for a redone step
    low, high = {"r2adi": (redone, redone), "radi": (steps, steps),
                 "hybrid": (1, steps - 1)}[mode]
    assert steps > 1 and low <= closed <= high


def test_redone_steps_expand_twice(ledger, monkeypatch):
    # with no cancellation allowed every r2adi step is redone closed-loop
    monkeypatch.setattr(solver_mod, "MAX_GRAM_CANCELLATION", -1.0)
    prob = _problem(60, True, ledger)
    res = rc.solve(prob, rc.SolverOptions(mode="r2adi", tol=TOL),
                   rc.HamiltonianShifts())
    assert res.converged and all(r.redone for r in res.records)
    steps, _ = _assert_ledger(ledger, prob, res, True)
    assert (ledger["lu"], ledger["solve"]) == (3 * steps + 1, 4 * steps)
    assert ledger["B"] == 6 * steps + 1
    assert (ledger["A"], ledger["E"]) == (steps + 6, 2 * steps + 6)
    assert [ledger[name] for name in KERNELS] == [2 * steps, 2 * steps, steps]


# Peak new allocation of one absorption on the n = 3000 FEM pencil, outside
# the steps that grow Z's buffer. Measured with p = 6, hybrid, Hamiltonian
# shifts (36 steps to q = 246): 0.66-1.22 MB, the most at the steps that
# absorb a realified pair (12 columns) and rising slowly with Hminus's q^2
# entries (0.48 MB at q = 246). The 4 growth steps read 1.49, 2.36, 4.75 and
# 8.19 MB. Rebuilding Z with np.hstack every step took 0.90 MB at q = 0 and
# 6.68 MB at q = 240, about 0.9 MB plus n q 8 bytes.
ABSORB_PEAK_MB = 1.5


def test_absorption_allocates_no_copy_of_z(monkeypatch):
    A, E = fem1d_pair(3000)
    rng = np.random.default_rng(90)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((3000, 1)),
                          C=rng.standard_normal((6, 3000)), E=E)
    peaks = []
    for name in ("absorb_r2adi", "absorb_radi"):
        absorb = getattr(brad, name)

        def traced(state, problem, block, absorb=absorb):
            tracemalloc.start()
            try:
                return absorb(state, problem, block)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        monkeypatch.setattr(brad, name, traced)
    res = rc.solve(prob, rc.SolverOptions(mode="hybrid"))
    assert res.converged and res.state.q > 200
    assert len(peaks) == len(res.records) > 30
    growths = math.ceil(math.log2(res.state.q / brad.MIN_BASIS_COLUMNS)) + 1
    over = [round(p, 2) for p in peaks if p > ABSORB_PEAK_MB]
    assert len(over) <= growths, over
