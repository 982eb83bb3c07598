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
gram_cancellation of any open-loop absorption, a redone one included (the
figures the MAX_GRAM_CANCELLATION comment in solver.py quotes), the
largest residual defect ||R(Z Z*) - R R*|| / ||C* C|| of an answer, as
ricadi.oracle.residual_defect estimates it, and the entries stored by all
the workload's shifted SuperLU factors (superlu_nnz; 0 where every factor
is a dense LU), so a change of fill shows as a count. Next to it stands
the number of SuperLU calls that order by minimum degree on M* + M
(orderings, MMD_AT_PLUS_A): one per sparse solve, whose ShiftedSystem
orders its pencil's pattern once. Then come the growth buffers made for Z
(buffers), so a change of when Z is copied shows as a count too. Last
stand the calls of scipy.linalg's lu_solve, solve_triangular and
block_diag (wrappers): no step may call them, so each workload reads 0;
ricadi calls LAPACK's getrs and trtrs itself and builds D without
block_diag, bitwise equal to the wrappers' results.
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
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ricadi as rc  # noqa: E402
import ricadi.brad as brad  # noqa: E402
import ricadi.shifted as shifted  # noqa: E402
from ricadi.oracle import residual_defect  # noqa: E402
from workloads import TOL, WORKLOADS, build_inputs  # noqa: E402

SEED = 302
SINGLE_INSTANCES = 3
# As perfbench/worker.py: a cyclic list is replayed far more often than used.
CYCLE_REPEATS = 25
# scipy.linalg's validating wrappers of one LAPACK call each
WRAPPERS = ("lu_solve", "solve_triangular", "block_diag")


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
    return problem, rc.solve(problem, options, source)


def main():
    # every open-loop absorption, kept or redone: solve reads brad.absorb_r2adi
    cancellations = []
    absorb_r2adi = brad.absorb_r2adi

    def recording_absorb_r2adi(state, problem, block):
        new = absorb_r2adi(state, problem, block)
        cancellations.append(new.gram_cancellation)
        return new

    brad.absorb_r2adi = recording_absorb_r2adi
    # every shifted factor: brad reads shifted.factorize
    superlu_nnz = []
    factorize = shifted.factorize

    def recording_factorize(*args, **kwargs):
        f = factorize(*args, **kwargs)
        if not isinstance(f.lu, tuple):  # a SuperLU factor, not a dense LU
            superlu_nnz.append(f.lu.nnz)
        return f

    shifted.factorize = recording_factorize
    # every SuperLU call that orders by minimum degree on M* + M: the
    # system and the factors call shifted.spla's splu and spilu
    orderings = []
    spla = shifted.spla

    def recording_superlu(name):
        def called(M, **kwargs):
            orderings.append(kwargs.get("permc_spec") == "MMD_AT_PLUS_A")
            return getattr(spla, name)(M, **kwargs)
        return called

    shifted.spla = SimpleNamespace(splu=recording_superlu("splu"),
                                   spilu=recording_superlu("spilu"))
    # the capacity of every growth buffer: brad._appended reads brad._Basis
    buffers = []
    basis = brad._Basis

    def recording_basis(data, *args):
        buffers.append(data.shape[1])
        return basis(data, *args)

    brad._Basis = recording_basis
    # every call of a validating scipy wrapper that a step could make
    wrappers = []

    def recording_wrapper(f):
        def called(*args, **kwargs):
            wrappers.append(f.__name__)
            return f(*args, **kwargs)
        return called

    for name in WRAPPERS:
        setattr(sla, name, recording_wrapper(getattr(sla, name)))
    # workload -> [inputs, steps, q, redone, closed-loop, LU nnz, orderings,
    # buffers, wrappers]
    totals = {}
    worst = {}  # workload -> [max cancellation, max residual defect]
    for workload, entry in inputs():
        cancellations.clear()
        superlu_nnz.clear()
        orderings.clear()
        buffers.clear()
        wrappers.clear()
        problem, res = solve(entry)
        steps, q = len(res.records), res.state.q
        print(f"{workload}/{entry['name']}", sha256(res.Z), sha256(res.R),
              f"steps={steps}", f"q={q}", f"converged={res.converged}", flush=True)
        counts = (1, steps, q, sum(r.redone for r in res.records),
                  sum(r.closed_loop for r in res.records), sum(superlu_nnz),
                  sum(orderings), len(buffers), len(wrappers))
        total = totals.setdefault(workload, [0] * len(counts))
        total[:] = map(sum, zip(total, counts))
        peaks = (max(cancellations, default=0.0),
                 residual_defect(problem, res.Z, res.R))
        peak = worst.setdefault(workload, [0.0, 0.0])
        peak[:] = map(max, zip(peak, peaks))
    for workload, (count, steps, q, redone, closed, nnz, ordered, made,
                   wrapped) in totals.items():
        cancellation, defect = worst[workload]
        print(f"{workload}: {count} inputs, steps={steps}, q={q}, "
              f"redone={redone}, closed_loop={closed}, "
              f"max_cancellation={cancellation:.2g}, "
              f"max_residual_defect={defect:.2g}, superlu_nnz={nnz}, "
              f"orderings={ordered}, buffers={made}, wrappers={wrapped}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
