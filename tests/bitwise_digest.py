#!/usr/bin/env python3
"""Print a SHA-256 digest of Z and R for each benchmark input, one line each.

    python3 tests/bitwise_digest.py > digest.txt

Builds 66 inputs with perfbench's generators at seed 302: the 57 problems of
small-batch and the first three instances of each single-problem workload.
Each is solved with the workload's settings and one BLAS thread, and the
line gives the input's name, the SHA-256 of Z and of R, the steps, q and
whether the solve converged. Two checkouts compute the same iterates
bitwise exactly when their outputs are identical (diff them). Each
workload's totals of steps, q, redone steps and closed-loop steps go to
stderr, one line each, so a change that moves iterates shows by how much
without touching the digest. The same line gives the largest
gram_cancellation of any open-loop absorption, a redone one included, and
the largest Lyapunov identity defect of a final state: the figures the
MAX_GRAM_CANCELLATION and MAX_LYAPUNOV_DEFECT comments in solver.py quote.
It is a script, not a pytest module.
"""

import os

# One BLAS thread, set before numpy loads: threaded BLAS may sum in another
# order from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ricadi as rc  # noqa: E402
import ricadi.brad as brad  # noqa: E402
from workloads import TOL, WORKLOADS, build_inputs  # noqa: E402

SEED = 302
SINGLE_INSTANCES = 3
# As perfbench/worker.py: a cyclic list is replayed far more often than used.
CYCLE_REPEATS = 25


def sha256(M):
    return hashlib.sha256(np.ascontiguousarray(M).tobytes()).hexdigest()


def inputs():
    for workload, spec in WORKLOADS.items():
        entries = build_inputs(workload, SEED)
        if spec["kind"] == "single":
            entries = entries[:SINGLE_INSTANCES]
        for entry in entries:
            yield workload, entry


def solve(entry):
    problem = rc.ProblemSpec(A=entry["A"], B=entry["B"], C=entry["C"], E=entry["E"])
    if entry["shifts"] == "hamiltonian":
        source = rc.HamiltonianShifts()
    else:
        source = rc.PrecomputedShifts(list(entry["shift_list"]) * CYCLE_REPEATS)
    options = rc.SolverOptions(mode=entry["mode"], tol=TOL,
                               parallel_width=entry["parallel_width"])
    return rc.solve(problem, options, source)


def main():
    # every open-loop absorption, kept or redone: solve reads brad.absorb_r2adi
    cancellations = []
    absorb_r2adi = brad.absorb_r2adi

    def recording_absorb_r2adi(state, problem, block):
        new = absorb_r2adi(state, problem, block)
        cancellations.append(new.gram_cancellation)
        return new

    brad.absorb_r2adi = recording_absorb_r2adi
    totals = {}  # workload -> [inputs, steps, q, redone, closed-loop]
    worst = {}  # workload -> [max cancellation, max Lyapunov defect]
    for workload, entry in inputs():
        cancellations.clear()
        res = solve(entry)
        steps, q = len(res.records), res.state.q
        print(f"{workload}/{entry['name']}", sha256(res.Z), sha256(res.R),
              f"steps={steps}", f"q={q}", f"converged={res.converged}", flush=True)
        counts = (1, steps, q, sum(r.redone for r in res.records),
                  sum(r.closed_loop for r in res.records))
        total = totals.setdefault(workload, [0] * len(counts))
        total[:] = map(sum, zip(total, counts))
        peaks = (max(cancellations, default=0.0), brad.lyapunov_defect(res.state))
        peak = worst.setdefault(workload, [0.0, 0.0])
        peak[:] = map(max, zip(peak, peaks))
    for workload, (count, steps, q, redone, closed) in totals.items():
        cancellation, defect = worst[workload]
        print(f"{workload}: {count} inputs, steps={steps}, q={q}, "
              f"redone={redone}, closed_loop={closed}, "
              f"max_cancellation={cancellation:.2g}, "
              f"max_lyapunov_defect={defect:.2g}", file=sys.stderr)


if __name__ == "__main__":
    main()
