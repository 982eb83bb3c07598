"""End-to-end acceptance suite; prints one pass/fail line per criterion."""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import conftest
import ricadi as rc
import ricadi.brad as brad
import ricadi.shifted as shifted_mod
import ricadi.solver as solver_mod
from conftest import (
    RecordingShifts,
    assert_invariants,
    dense_x,
    one_shift_per_step,
    projected_system_zeros,
    random_problem,
    rational_residual_factor,
    rel2,
    scalar_problem,
)
from invariants import (
    brad_residual_check,
    closed_loop_pole_check,
    eigenvalue_match_distance,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"{status}: {name}{suffix}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}{suffix}"


# (n, m, p, generalized): covers n in {30, 60, 100}, m and p in {1, 2, 4},
# E absent and SPD.
RANDOM_CONFIGS = [
    (30, 1, 1, False), (30, 2, 1, False), (30, 1, 2, True),
    (30, 4, 4, False), (30, 2, 2, True), (30, 1, 4, False),
    (30, 4, 1, True),
    (60, 1, 1, True), (60, 2, 2, False), (60, 4, 2, True),
    (60, 2, 4, False), (60, 1, 2, False), (60, 4, 4, True),
    (100, 1, 1, False), (100, 2, 1, True), (100, 2, 2, False),
    (100, 4, 2, False), (100, 1, 4, True), (100, 4, 4, False),
    (100, 4, 1, False),
]


@pytest.fixture(scope="module")
def random_runs():
    """The twenty random solver runs shared by several criteria."""
    runs = []
    t0 = time.perf_counter()
    for i, (n, m, p, gen) in enumerate(RANDOM_CONFIGS):
        problem = random_problem(1000 + i, n=n, m=m, p=p, generalized=gen)
        rec = RecordingShifts(rc.HamiltonianShifts())
        states = []
        res = rc.solve(
            problem, rc.SolverOptions(tol=1e-9, max_iter=60), rec,
            callback=lambda s, r, states=states: states.append(s))
        ref = rc.dense_care(problem)
        runs.append(SimpleNamespace(
            problem=problem, result=res, batches=list(rec.batches),
            states=states, ref=ref, config=(n, m, p, gen)))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(runs=runs, elapsed=elapsed)


@pytest.fixture(scope="module")
def parallel_runs():
    """Serial and batched runs over one fixed real shift list."""
    shifts = list(np.logspace(-0.5, 1.2, 12))
    out = []
    for seed, n, m, p, gen in ((2000, 60, 2, 2, False),
                               (2001, 30, 1, 1, True)):
        problem = random_problem(seed, n=n, m=m, p=p, generalized=gen)
        per_width = {}
        for width in (1, 2, 4):
            states = []
            res = rc.solve(
                problem,
                rc.SolverOptions(tol=1e-280, max_iter=30,
                                 parallel_width=width),
                rc.PrecomputedShifts(shifts),
                callback=lambda s, r, states=states: states.append(s))
            per_width[width] = SimpleNamespace(result=res, states=states)
        out.append(SimpleNamespace(problem=problem, per_width=per_width))
    return out


@pytest.fixture(scope="module")
def realified_runs():
    """One real problem solved with and without realification."""
    problem = random_problem(3000, n=40, m=2, p=2)
    shifts = [2 + 1j, 2 - 1j, 1.0, 3.5 + 0.8j, 3.5 - 0.8j, 0.7,
              5 + 2j, 5 - 2j, 4.1 + 3j, 4.1 - 3j, 1.3]

    counts = {"complex": 0, "real": 0}
    original = shifted_mod.factorize

    def counting(A, E=None, mu=0.0, *args):
        counts["complex" if complex(mu).imag != 0 else "real"] += 1
        return original(A, E, mu, *args)

    shifted_mod.factorize = counting
    try:
        rec = RecordingShifts(rc.PrecomputedShifts(shifts))
        real_states = []
        res_real = rc.solve(
            problem,
            rc.SolverOptions(tol=1e-280, max_iter=30), rec,
            callback=lambda s, r: real_states.append(s))
        real_counts = dict(counts)
        counts["complex"] = counts["real"] = 0
        res_cplx = one_shift_per_step(problem, shifts)
        cplx_counts = dict(counts)
    finally:
        shifted_mod.factorize = original
    # on real data every complex shift is a pair, realified in one solve
    pairs = sum(1 for mu in rec.emitted if mu.imag != 0)
    return SimpleNamespace(problem=problem, shifts=shifts,
                           res_real=res_real, res_cplx=res_cplx,
                           real_states=real_states,
                           real_counts=real_counts, cplx_counts=cplx_counts,
                           pairs=pairs)


@pytest.fixture(scope="module")
def lyapunov_runs():
    """Both absorption variants on the diagonal B = 0 example."""
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    problem = rc.ProblemSpec(A=A, B=None, C=np.ones((1, 3)))
    per_mode = {}
    for mode in ("r2adi", "radi"):
        states = []
        res = rc.solve(
            problem, rc.SolverOptions(mode=mode, tol=1e-280, max_iter=2),
            rc.PrecomputedShifts([1.0, 2.0]),
            callback=lambda s, r, states=states: states.append(s))
        per_mode[mode] = SimpleNamespace(result=res, states=states)
    return SimpleNamespace(problem=problem, per_mode=per_mode)


# --------------------------------------------------------------- criteria

def test_criterion_01_scalar_closed_form():
    t0 = time.perf_counter()
    prob = scalar_problem()
    # step-1 intermediates of the hand-checked pipeline
    f = shifted_mod.factorize(prob.A, mu=1.0)
    W = shifted_mod.solve_factored(f, prob.C.conj().T)
    ok_w = abs(W[0, 0] - (-0.5)) <= 1e-14
    rhs = (prob.B.conj().T @ W)[0, 0] ** 2 + 1.0
    Y22 = rc.kernels.solve_lyapunov_small(np.array([[1.0]]),
                                           np.array([[rhs]]))
    ok_y = abs(Y22[0, 0] - 0.625) <= 1e-14
    state = brad.init_state(prob)
    state = brad.absorb_r2adi(state, prob, brad.expand_simple(state, prob, 1.0))
    ok_x1 = abs(dense_x(state)[0, 0] - 0.4) <= 1e-14
    ok_r1 = abs(state.R[0, 0] - 0.2) <= 1e-14

    ok_modes = True
    for mode in ("r2adi", "radi", "hybrid"):
        res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-12),
                       [1.0, np.sqrt(2.0)])
        ok_modes &= (len(res.records) == 2
                     and abs(dense_x(res)[0, 0] - (np.sqrt(2) - 1)) <= 1e-10
                     and res.rel_residual <= 1e-12)
    elapsed = time.perf_counter() - t0
    report("criterion 1: scalar closed form",
           ok_w and ok_y and ok_x1 and ok_r1 and ok_modes and elapsed < 1.0,
           f"W={W[0, 0]:.3g} Y22={Y22[0, 0]:.6g} {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence(random_runs):
    worst = 0.0
    ok = random_runs.elapsed < 60.0
    for run in random_runs.runs:
        converged = run.result.converged and len(run.result.records) <= 60
        err = rel2(dense_x(run.result), run.ref.X)
        worst = max(worst, err)
        ok &= converged and err <= 1e-6
    report("criterion 2: oracle equivalence on 20 random problems", ok,
           f"worst X err {worst:.2e}, {random_runs.elapsed:.1f}s")


def _residual_floor(problem, X):
    """Forward-error bound of forming the dense residual of X in float64.

    eps * (2 ||A|| ||XE|| + ||C*C|| + ||B*XE||^2): no float64 evaluation of
    the residual, however exact the iterate's bookkeeping, resolves singular
    values below roughly this size.
    """
    def dense(M):
        return M.toarray() if sp.issparse(M) else np.asarray(M)

    XE = X if problem.E is None else X @ dense(problem.E)
    return np.finfo(float).eps * (
        2 * np.linalg.norm(dense(problem.A), 2) * np.linalg.norm(XE, 2)
        + np.linalg.norm(problem.C.conj().T @ problem.C, 2)
        + np.linalg.norm(problem.B.conj().T @ XE, 2) ** 2)


def _rank_p_bounds(problem, X):
    """Dense residual of X, its singular values, and the two parts of the
    numerical-rank bound sigma_(p+1) <= 1e-9 sigma_1 + 3 f."""
    mat, _ = rc.dense_residual(problem, X)
    sv = np.linalg.svd(mat, compute_uv=False)
    return mat, sv, 1e-9 * sv[0], 3.0 * _residual_floor(problem, X)


def test_criterion_03_rank_p_residual(random_runs):
    # Near convergence sigma_1 falls below 1e-9 ||C*C|| while sigma_(p+1)
    # stays at the float64 evaluation floor, so a bare ratio
    # sigma_(p+1)/sigma_1 <= 1e-9 cannot hold there; the floor term takes
    # over only where the relative bound asks for accuracy below roundoff.
    worst_defect = worst_load = worst_ratio = 0.0
    weakest_control = np.inf
    checked = controls = rejected = 0
    rng = np.random.default_rng(3)
    for run in random_runs.runs:
        if run.config[0] != 30:
            continue
        problem = run.problem
        p = problem.p
        cc = np.linalg.norm(problem.C.conj().T @ problem.C, 2)
        for state in run.states:
            mat, sv, rel, floor = _rank_p_bounds(problem, dense_x(state))
            defect = np.linalg.norm(mat - state.R @ state.R.conj().T, 2)
            worst_defect = max(worst_defect, defect / cc)
            worst_load = max(worst_load, sv[p] / (rel + floor))
            if rel >= floor:
                worst_ratio = max(worst_ratio, sv[p] / sv[0])
            checked += 1
        # negative control: a rank-one error of 1e-10 ||X|| in the last
        # iterate must show up above the bound
        X = dense_x(run.states[-1])
        w = rng.standard_normal(problem.n)
        w /= np.linalg.norm(w)
        X = X + 1e-10 * np.linalg.norm(X, 2) * np.outer(w, w)
        _, sv, rel, floor = _rank_p_bounds(problem, X)
        weakest_control = min(weakest_control, sv[p] / (rel + floor))
        rejected += sv[p] > rel + floor
        controls += 1
    ok = (checked > 0 and worst_defect <= 1e-9 and worst_load <= 1.0
          and rejected == controls)
    report("criterion 3: rank-p residual at every step", ok,
           f"{checked} states, defect {worst_defect:.2e}, "
           f"sigma_(p+1)/bound {worst_load:.2e}, "
           f"sigma ratio {worst_ratio:.2e} where 1e-9 sigma_1 dominates, "
           f"{rejected}/{controls} perturbed iterates rejected, "
           f"weakest at {weakest_control:.2e} x bound")


def test_criterion_04_method_equivalence(random_runs):
    worst = 0.0
    ok = True
    for run in random_runs.runs[:7] + [random_runs.runs[9]]:
        shifts = [mu for batch in run.batches for mu in batch]
        steps = len(run.batches)
        xs = {}
        for mode in ("r2adi", "radi", "hybrid"):
            res = rc.solve(
                run.problem,
                rc.SolverOptions(mode=mode, tol=1e-280, max_iter=steps),
                rc.PrecomputedShifts(shifts))
            xs[mode] = dense_x(res)
        for mode in ("radi", "hybrid"):
            dev = rel2(xs[mode], xs["r2adi"])
            worst = max(worst, dev)
            ok &= dev <= 1e-8
    report("criterion 4: r2adi/radi/hybrid equivalence", ok,
           f"worst deviation {worst:.2e}")


def _gram_floor(problem, result):
    """Forward-error bound of the residual Gram R*R in float64.

    R = C* + E*Z h* is accumulated from terms of size ||C|| and ||E*Z|| ||h||,
    so near convergence its absolute error is eps (||C|| + ||E*Z|| ||h||)
    however small R itself is; the Gram inherits 2 ||R|| times that.
    """
    state = result.state
    EZ = state.Z if problem.E is None else problem.E.conj().T @ state.Z
    err_r = np.finfo(float).eps * (np.linalg.norm(problem.C, 2) + np.linalg.norm(EZ, 2)
                                   * np.linalg.norm(state.h, 2))
    return 2 * np.linalg.norm(state.R, 2) * err_r


def test_criterion_05_parallel_equals_serial(parallel_runs):
    # After 30 steps the residual is near roundoff (relative residual 3e-11
    # on run 2001), so a relative Gram distance alone reads the float64
    # floor of R; as in criterion 3 a floor term is added, here 1e-8
    # relative + 10 Gram floors.
    worst_x = worst_g = worst_load = 0.0
    controls = rejected = 0
    for entry in parallel_runs:
        base = entry.per_width[1].result
        Xb = dense_x(base)
        Gb = base.R.conj().T @ base.R
        bound = 1e-8 * np.linalg.norm(Gb, 2) + 10 * _gram_floor(entry.problem, base)
        for width in (2, 4):
            res = entry.per_width[width].result
            G = res.R.conj().T @ res.R
            worst_x = max(worst_x, rel2(dense_x(res), Xb))
            worst_g = max(worst_g, rel2(G, Gb))
            worst_load = max(worst_load, np.linalg.norm(G - Gb, 2) / bound)
            # negative control: an error of 1e-7 ||R|| in the residual
            # factor must show up above the bound
            Rp = (1 + 1e-7) * res.R
            rejected += np.linalg.norm(Rp.conj().T @ Rp - Gb, 2) > bound
            controls += 1
    ok = worst_x <= 1e-8 and worst_load <= 1.0 and rejected == controls
    report("criterion 5: parallel width 2/4 equals serial", ok,
           f"X dev {worst_x:.2e}, residual Gram dev {worst_g:.2e}, "
           f"Gram dev/bound {worst_load:.2e}, "
           f"{rejected}/{controls} perturbed residual factors rejected")


def test_criterion_06_realification(realified_runs):
    r = realified_runs
    stored_real = all(
        not np.iscomplexobj(getattr(r.res_real.state, name))
        for name in ("Z", "h", "Hminus", "SB", "R", "K"))
    xdev = rel2(dense_x(r.res_real), dense_x(r.res_cplx).real)
    one_solve_per_pair = (r.real_counts["complex"] == r.pairs
                          and r.pairs > 0
                          and r.cplx_counts["complex"] == 2 * r.pairs)
    ok = stored_real and xdev <= 1e-10 and one_solve_per_pair
    report("criterion 6: realified pair processing", ok,
           f"X dev {xdev:.2e}, {r.real_counts['complex']} complex "
           f"factorizations for {r.pairs} pairs")


def test_criterion_07_brad_invariants(random_runs, parallel_runs,
                                      realified_runs, lyapunov_runs):
    worst = 0.0
    checked = 0

    def sweep(problem, states):
        nonlocal worst, checked
        for state in states:
            checks = brad_residual_check(state, problem)
            worst = max(worst, max(checks.values()))
            checked += 1

    for run in random_runs.runs:
        sweep(run.problem, run.states)
    for entry in parallel_runs:
        for width in (1, 2, 4):
            sweep(entry.problem, entry.per_width[width].states)
    sweep(realified_runs.problem, realified_runs.real_states)
    for mode in ("r2adi", "radi"):
        sweep(lyapunov_runs.problem, lyapunov_runs.per_mode[mode].states)
    ok = checked > 0 and worst <= 1e-10
    report("criterion 7: state invariants after every absorb", ok,
           f"{checked} states, worst scaled defect {worst:.2e}")


def test_criterion_08_rational_residual_factor():
    problem = random_problem(4000, n=50, m=1, p=1)
    states = []
    rc.solve(problem, rc.SolverOptions(tol=1e-280, max_iter=5),
             rc.HamiltonianShifts(),
             callback=lambda s, r: states.append(s))
    worst = 0.0
    for state in states:
        zeros = projected_system_zeros(state)
        fac = rational_residual_factor(problem, state.poles, zeros)
        if not np.iscomplexobj(state.R):
            fac = fac.real
        worst = max(worst,
                    float(np.linalg.norm(state.R - fac)
                          / np.linalg.norm(state.R)))
    ok = len(states) == 5 and worst <= 1e-8
    report("criterion 8: rational residual factor per step", ok,
           f"worst rel dev {worst:.2e}")


def test_criterion_09_closed_loop_poles(random_runs):
    worst_defect = worst_pole = 0.0
    checked = 0
    for run in random_runs.runs:
        for state in run.states:
            worst_defect = max(worst_defect,
                               closed_loop_pole_check(state, run.problem))
            worst_pole = max(worst_pole, eigenvalue_match_distance(
                np.linalg.eigvals(state.Hminus), state.poles))
            checked += 1
    ok = checked > 0 and worst_defect <= 1e-8 and worst_pole <= 1e-8
    report("criterion 9: closed-loop pole identities", ok,
           f"{checked} states, defect {worst_defect:.2e}, "
           f"pole match {worst_pole:.2e}")


def test_criterion_10_lyapunov_case(lyapunov_runs):
    runs = lyapunov_runs.per_mode
    res = runs["r2adi"].result
    poles = res.state.poles
    fac = rational_residual_factor(
        lyapunov_runs.problem, poles, [-np.conj(s) for s in poles])
    factor_dev = float(np.linalg.norm(res.R - fac.real))
    state_dev = 0.0
    for s1, s2 in zip(runs["r2adi"].states, runs["radi"].states):
        for name in ("Z", "h", "Hminus", "SB", "R", "K"):
            a, b = getattr(s1, name), getattr(s2, name)
            if a.size:  # SB and K are empty in the B = 0 case
                state_dev = max(state_dev, float(np.max(np.abs(a - b))))
    ok = factor_dev <= 1e-10 and state_dev <= 1e-12
    report("criterion 10: B = 0 reduces both iterations to one", ok,
           f"factor dev {factor_dev:.2e}, state dev {state_dev:.2e}")


def test_criterion_11_stopping_semantics(random_runs, monkeypatch):
    tol = 1e-9
    ok_halt = True
    for run in random_runs.runs:
        records = run.result.records
        ok_halt &= records[-1].rel_residual < tol
        ok_halt &= all(r.rel_residual >= tol for r in records[:-1])

    # over-supplied shift list: iteration must stop at the first hit
    prob = scalar_problem()
    res = rc.solve(prob, rc.SolverOptions(tol=1e-10),
                   [1.0, np.sqrt(2.0), 5.0, 7.0, 11.0])
    ok_halt &= len(res.records) == 2

    # residual norms only ever touch tall skinny factors
    n = 1500
    A = sp.diags([np.ones(n - 1), -3.0 * np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1]).tocsc()
    big = rc.ProblemSpec(A=A, B=np.ones((n, 1)),
                         C=np.linspace(1.0, 2.0, n).reshape(1, n))
    widths = []
    original = solver_mod.spectral_norm_gram

    def spying(R):
        R = np.atleast_2d(np.asarray(R))
        widths.append(min(R.shape))
        return original(R)

    monkeypatch.setattr(solver_mod, "spectral_norm_gram", spying)
    tracemalloc.start()
    rc.solve(big, rc.SolverOptions(tol=1e-280, max_iter=3), [1.0, 2.0, 4.0])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_bytes = n * n * 8
    ok_alloc = peak < 0.25 * dense_bytes
    ok_spy = widths and max(widths) <= big.p
    report("criterion 11: stopping rule via small Grams only",
           ok_halt and ok_alloc and bool(ok_spy),
           f"peak {peak / 1e6:.1f} MB vs dense {dense_bytes / 1e6:.0f} MB, "
           f"max gram width {max(widths) if widths else -1}")
