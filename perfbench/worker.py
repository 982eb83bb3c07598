"""One workload process: load the inputs, solve them for the time budget.

Started by run.py with a manifest of Matrix Market files. The clock for the
set-up time starts before ``import ricadi``. A reference kernel is timed
between solves (hostspeed.py) and every time is divided by the host's
slow-down factor around it. Prints one JSON object with the samples; run.py
turns them into metrics.

    python3 perfbench/worker.py --manifest M.json --setup-only
    python3 perfbench/worker.py --manifest M.json --seconds 24 --trace 0
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import ricadi as rc  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFECT_LIMIT, TOL  # noqa: E402

# Cyclic shift lists are replayed this many times; far more than any solve uses.
CYCLE_REPEATS = 25


def span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def load(entries, tracer=None):
    problems = []
    for e in entries:
        with span(tracer, "problems.load"):
            problems.append(rc.load_problem(e["a"], e["c"], b_path=e["b"], e_path=e["e"]))
    return problems


def shift_source(entry):
    if entry["shifts"] == "hamiltonian":
        return rc.HamiltonianShifts()
    shifts = [complex(re, im) for re, im in entry["shift_list"]]
    return rc.PrecomputedShifts(shifts * CYCLE_REPEATS)


def state_mb(state):
    arrays = [getattr(state, k, None) for k in ("Z", "h", "Hminus", "SB", "R", "K")]
    return sum(a.nbytes for a in arrays if a is not None) / 2**20


@dataclass
class Outcome:
    """What one solve did: its times, counts and verdict."""

    start: float = 0.0
    solve_s: float = 0.0
    step_s: list = field(default_factory=list)
    steps: int = 0
    q: int = 0
    failure: str = None  # why the solve counts as failed, if it does
    incorrect: bool = False  # claimed convergence but failed the residual check
    state_mb: float = 0.0
    defect: float = 0.0


def solve_and_check(problem, entry, check, tracer=None):
    out = Outcome()
    source = shift_source(entry)
    if tracer is not None:
        tracer.wrap(source, "next_shifts", "shifts.next_shifts")
    options = rc.SolverOptions(mode=entry["mode"], tol=TOL,
                               parallel_width=entry["parallel_width"])
    stamps = []

    def callback(state, record):
        stamps.append(time.perf_counter())

    result = None
    t0 = out.start = time.perf_counter()
    try:
        with span(tracer, "solver.solve"):
            result = rc.solve(problem, options, source, callback=callback)
    except Exception as exc:  # a raising solve is counted as failed, never fatal
        out.failure = f"{type(exc).__name__}: {exc}"
    out.solve_s = time.perf_counter() - t0
    out.step_s = [b - a for a, b in zip([t0] + stamps, stamps)]
    if result is None:
        return out
    out.steps = len(result.records)
    out.q = result.Z.shape[1]
    out.state_mb = state_mb(result.state)
    if not (result.converged and result.rel_residual < TOL):
        out.failure = f"not converged: {result.message} ({result.rel_residual:.3e})"
        return out
    with span(tracer, "oracle.verify"):
        out.defect = check(problem, result)
    if not out.defect <= DEFECT_LIMIT:
        out.failure = f"residual check failed: defect {out.defect:.3e}"
        out.incorrect = True
    return out


def dense_check(problem, result):
    return checks.dense_defect(rc.oracle.dense_residual, problem, result.Z, result.R)


def matfree_check(problem, result):
    return checks.matfree_defect(problem, result.Z, result.R)


def run_pass(problems, entries, manifest, tracer=None, host=None):
    """Solve each problem once; returns the outcomes."""
    check = dense_check if manifest["check"] == "dense" else matfree_check
    outcomes = []
    for problem, entry in zip(problems, entries):
        if host is not None:
            host.maybe_sample()
        if tracer is not None:
            layers.install(tracer)
        try:
            outcomes.append(solve_and_check(problem, entry, check, tracer))
        finally:
            if tracer is not None:
                tracer.restore()
    return outcomes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.manifest) as fh:
        manifest = json.load(fh)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install_problems(tracer)
    problems = load(manifest["problems"], tracer)
    t_setup = time.perf_counter()
    setup_wall_s = t_setup - _T0
    host = HostSpeed()
    host.sample()
    setup_factor = host.factor(t_setup, t_setup)
    setup = {"setup_s": setup_wall_s / setup_factor, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    load_values = {}
    if tracer is not None:
        load_values = {k: v / setup_factor if layers.METRICS[k][0] == "s" else v
                       for k, v in layers.load_metrics(tracer.spans).items()}
        tracer.restore()
        tracer.reset()

    # Untimed warm-up on a few of the inputs: lazy imports, first-call costs
    # and allocator growth stay out of the timed solves.
    warm = manifest["warmup"]
    run_pass([problems[i] for i in warm], [manifest["problems"][i] for i in warm], manifest)

    # An item is what one timing sample covers: one problem for per-solve
    # workloads, the whole batch otherwise. Items run round-robin until the
    # budget is spent; in the traced run every other round is traced.
    entries = manifest["problems"]
    if manifest["unit"] == "solve":
        items = [([p], [e]) for p, e in zip(problems, entries)]
    else:
        items = [(problems, entries)]
    passes = []
    min_rounds = 2 if tracer is not None else 1

    done, t_start = 0, time.perf_counter()
    while True:
        i, rounds = done % len(items), done // len(items)
        traced = tracer is not None and rounds % 2 == 1
        t_item = time.perf_counter()
        if traced:
            tracer.reset()
        outcomes = run_pass(*items[i], manifest, tracer if traced else None, host)
        layer_values = None
        if traced:
            layer_values = layers.solve_metrics(
                tracer.spans, sum(o.state_mb for o in outcomes))
        passes.append(SimpleNamespace(item=i, traced=traced, outcomes=outcomes,
                                      layers=layer_values))
        done += 1
        elapsed = time.perf_counter() - t_start
        if (done >= min_rounds * len(items)
                and elapsed + (time.perf_counter() - t_item) > args.seconds):
            break
    host.sample()
    measured_s = time.perf_counter() - t_start

    report = {"ricadi_file": rc.__file__, **setup, "step_s": [],
              "attempted": 0, "failed": 0, "incorrect": 0, "failures": {},
              "max_defect": 0.0, "host_factor": host.median_factor()}
    times = [[] for _ in items]
    wall_times = [[] for _ in items]
    traced_times = [[] for _ in items]
    counts = [[] for _ in items]
    traced_layers = [[] for _ in items]
    for ps in passes:
        wall = adjusted = 0.0
        for o in ps.outcomes:
            factor = host.factor(o.start, o.start + o.solve_s)
            wall += o.solve_s
            adjusted += o.solve_s / factor
            report["attempted"] += 1
            report["step_s"] += [s / factor for s in o.step_s]
            report["max_defect"] = max(report["max_defect"], o.defect)
            if o.failure is not None:
                report["failed"] += 1
                report["incorrect"] += o.incorrect
                report["failures"].setdefault(o.failure.split(":")[0], o.failure)
        counts[ps.item].append([sum(o.steps for o in ps.outcomes),
                                sum(o.q for o in ps.outcomes)])
        if ps.traced:
            # Layer seconds scale with the pass's mean slow-down, as its solves do.
            scale = adjusted / wall if wall else 1.0
            traced_layers[ps.item].append({
                k: v * scale if layers.METRICS[k][0] == "s" else v
                for k, v in ps.layers.items()})
            traced_times[ps.item].append(adjusted)
        else:
            times[ps.item].append(adjusted)
            wall_times[ps.item].append(wall)

    def median_of_items(samples):
        # Every item has samples from the first (and, traced, the second)
        # round; later rounds may stop part way, so each item counts once.
        return statistics.median(statistics.median(s) for s in samples if s)

    report["solve_s"] = median_of_items(times)
    report["solve_wall_s"] = median_of_items(wall_times)
    report["samples"] = [t for ts in times for t in ts]
    report["counts"] = counts
    if tracer is not None:
        values = {k: median_of_items([[v[k] for v in item] for item in traced_layers])
                  for k in traced_layers[0][0]}
        values.update(load_values)
        values["trace.solve_s"] = median_of_items(traced_times)
        values["trace.overhead_s"] = values["trace.solve_s"] - report["solve_s"]
        report["layers"] = layers.mark_absent(values, tracer.missing)
        report["missing_hooks"] = sorted(tracer.missing)
    report["measured_s"] = measured_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
