"""Command-line driver: load matrices, run the solver, report and save."""

import argparse
import sys

import numpy as np

from .errors import RicadiError
from .oracle import DENSE_THRESHOLD, dense_care
from .problems import (
    load_problem,
    read_shift_file,
    write_convergence_log,
    write_matrix_market,
)
from .shifts import HamiltonianShifts, PrecomputedShifts
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
    p.add_argument("--shifts", help="shift file ('re im' per line)")
    p.add_argument("--mode", choices=["r2adi", "radi", "hybrid"],
                   default="r2adi")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--parallel-width", type=int, default=1)
    p.add_argument("--realify", choices=["on", "off", "auto"], default="auto")
    p.add_argument("--shift-strategy", choices=["precomputed", "hamiltonian"],
                   default="precomputed")
    p.add_argument("--window", type=int, default=None,
                   help="window size for the hamiltonian strategy "
                        "(default 6p)")
    p.add_argument("--out-z", help="write the solution factor Z (Matrix Market)")
    p.add_argument("--out-log", help="write the convergence log (CSV)")
    p.add_argument("--verify", action="store_true",
                   help="compare against the dense solver (small problems)")
    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shift_strategy == "precomputed" and not args.shifts:
        print(parser.format_usage(), file=sys.stderr, end="")
        print("ricadi: error: --shifts is required with the precomputed "
              "shift strategy", file=sys.stderr)
        return 1
    try:
        problem = load_problem(args.a, args.c, b_path=args.b, e_path=args.e)
        if args.shift_strategy == "precomputed":
            source = PrecomputedShifts(read_shift_file(args.shifts))
        else:
            source = HamiltonianShifts(window=args.window)
        realify = {"on": True, "off": False, "auto": None}[args.realify]
        options = SolverOptions(
            mode=args.mode, tol=args.tol, max_iter=args.max_iter,
            parallel_width=args.parallel_width, realify=realify,
        )
        result = solve(problem, options, source)
    except (RicadiError, OSError, ValueError) as exc:
        print(f"ricadi: error: {exc}", file=sys.stderr)
        return 1

    steps = len(result.records)
    exp_s = sum(r.expansion_s for r in result.records)
    abs_s = sum(r.absorb_s for r in result.records)
    print(f"steps          : {steps}")
    print(f"subspace dim   : {result.state.q}")
    print(f"rel. residual  : {result.rel_residual:.6e}")
    print(f"RAD exp.       : {exp_s:.3f} s")
    print(f"misc.          : {abs_s:.3f} s")
    print(f"total          : {exp_s + abs_s:.3f} s")
    if not result.converged:
        print(f"status         : {result.message}")

    if args.out_log:
        write_convergence_log(result.records, args.out_log)
    if args.out_z:
        write_matrix_market(np.asarray(result.Z), args.out_z)

    if args.verify:
        if problem.n > DENSE_THRESHOLD:
            print(f"verify         : skipped (n > {DENSE_THRESHOLD})")
        else:
            ref = dense_care(problem)
            X = result.Z @ result.Z.conj().T
            err = (np.linalg.norm(X - ref.X, 2)
                   / max(np.linalg.norm(ref.X, 2), 1e-300))
            print(f"verify         : |X - X_care| / |X_care| = {err:.3e}")

    print(f"RESULT iter={steps} dim={result.state.q} "
          f"relres={result.rel_residual:.17g}")
    return 0 if result.converged else 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
