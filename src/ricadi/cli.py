"""Command-line driver: load matrices, run the solver, report and save."""

import argparse
import sys

import numpy as np

from .errors import RicadiError
from .oracle import DENSE_ORACLE_MAX_N, dense_care, residual_defect
from .problems import (
    load_problem,
    read_shift_file,
    write_convergence_log,
    write_matrix_market,
)
from .shifts import PrecomputedShifts
from .solver import SolverOptions, solve


def build_parser():
    p = argparse.ArgumentParser(
        prog="ricadi",
        description="Low-rank ADI solver for large-scale algebraic "
                    "Riccati equations.",
    )
    p.add_argument("--a", required=True, help="Matrix Market file for A")
    p.add_argument("--b", help="Matrix Market file for B (omit for B = 0)")
    p.add_argument("--c", required=True, help="Matrix Market file for C")
    p.add_argument("--e", help="Matrix Market file for E (omit for E = I)")
    p.add_argument("--shifts", help="shift file ('re im' per line); without it "
                                    "the residual Hamiltonian strategy picks them")
    p.add_argument("--mode", choices=["r2adi", "radi", "hybrid"],
                   default="r2adi")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--parallel-width", type=int, default=1,
                   help="shifted solves per step from the --shifts list; "
                        "on real data a complex shift and its conjugate "
                        "are one solve (without --shifts, one shift per step)")
    p.add_argument("--out-z", help="write the solution factor Z (Matrix Market)")
    p.add_argument("--out-log", help="write the convergence log (CSV)")
    p.add_argument("--verify", action="store_true",
                   help="check Z: dense solver (n <= 500) or residual estimate")
    return p


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's: 0 after --help, 2 for a rejected line
        return 0 if exc.code == 0 else 1
    try:
        problem = load_problem(args.a, args.c, b_path=args.b, e_path=args.e)
        source = (None if args.shifts is None
                  else PrecomputedShifts(read_shift_file(args.shifts)))
        options = SolverOptions(mode=args.mode, tol=args.tol, max_iter=args.max_iter,
                                parallel_width=args.parallel_width)
        result = solve(problem, options, source)
    except (RicadiError, OSError, ValueError) as exc:
        print(f"ricadi: error: {exc}", file=sys.stderr)
        return 1

    steps = len(result.records)
    shift_s = sum(r.shift_s for r in result.records)
    exp_s = sum(r.expansion_s for r in result.records)
    abs_s = sum(r.absorb_s for r in result.records)
    print(f"steps          : {steps}")
    print(f"subspace dim   : {result.state.q}")
    print(f"rel. residual  : {result.rel_residual:.6e}")
    print(f"shift selection: {shift_s:.3f} s")
    print(f"expand         : {exp_s:.3f} s")
    print(f"absorption     : {abs_s:.3f} s")
    print(f"total          : {shift_s + exp_s + abs_s:.3f} s")
    if not result.converged:
        print(f"status         : {result.message}")

    if args.verify and problem.n > DENSE_ORACLE_MAX_N:
        defect = residual_defect(problem, result.Z, result.R)
        print(f"verify         : |R(ZZ*) - RR*| / |C*C| ~ {defect:.3e} (estimate)")
    elif args.verify:
        try:
            ref = dense_care(problem)
        except RuntimeError as exc:
            print(f"verify         : no reference ({exc})")
        else:
            X = result.Z @ result.Z.conj().T
            err = (np.linalg.norm(X - ref.X, 2)
                   / max(np.linalg.norm(ref.X, 2), 1e-300))
            print(f"verify         : |X - X_care| / |X_care| = {err:.3e}")

    print(f"RESULT iter={steps} dim={result.state.q} "
          f"relres={result.rel_residual:.17g}")
    try:
        if args.out_log:
            write_convergence_log(result.records, args.out_log)
        if args.out_z:
            write_matrix_market(result.Z, args.out_z)
    except OSError as exc:
        print(f"ricadi: error: {exc}", file=sys.stderr)
        return 1
    return 0 if result.converged else 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
