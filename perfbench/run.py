#!/usr/bin/env python3
"""ricadi benchmark: time to a solution of tolerance 1e-9 on four workloads.

    python3 perfbench/run.py --workload cd2d-adaptive --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The workload's inputs are built from the
seed and written as Matrix Market files under .perfbench_work/ (untimed).
Set-up time is measured in fresh processes, and the workload runs in a fresh
process of its own (worker.py) that solves through ricadi's public API and
checks every result. Times are at a reference host speed: each is divided by
the slow-down of a fixed reference kernel timed around it (hostspeed.py), so
that other tenants of a shared host do not move them. Prints a report and, as its last line, one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import os

# One BLAS/OpenMP thread here and in every child, set before numpy loads:
# ricadi's own expansion threads are then the only concurrency. On a 2-core
# machine the default pools made cd2d 40% slower and fem1d 2.5x slower, and
# would put 4 threads on 2 cores in cd2d-cyclic-parallel.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from workloads import DEFECT_LIMIT, WORKLOADS, build_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh processes that only import ricadi and load the files; with the
# worker's own set-up they give three set-up samples per run.
SETUP_PROBES = 2
# Inputs solved once, untimed, before measuring: one of the large problems,
# or a few of the batch including one of each kind of failure.
WARMUP = {"single": [0], "batch": [0, 1, 2, -1]}
DEADLINE_S = 170.0

END_TO_END = {
    "solve_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "steps": "count",
    "q": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, percentile(values, pct)


def write_inputs(problems, directory):
    """Write each problem's matrices; returns the manifest entries."""
    import scipy.io

    entries = []
    for prob in problems:
        d = directory / prob["name"]
        d.mkdir(parents=True)
        paths = {}
        for key in ("A", "B", "C", "E"):
            if prob[key] is None:
                paths[key.lower()] = None
                continue
            path = d / f"{key}.mtx"
            scipy.io.mmwrite(str(path), prob[key], symmetry="general")
            paths[key.lower()] = str(path)
        shift_list = prob.get("shift_list")
        entries.append(dict(
            name=prob["name"], mode=prob["mode"], shifts=prob["shifts"],
            parallel_width=prob["parallel_width"],
            shift_list=[[float(s.real), float(s.imag)] for s in map(complex, shift_list)]
            if shift_list is not None else None,
            **paths,
        ))
    return entries


def run_worker(manifest_path, deadline, *extra):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path), *extra]
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(report, setup_samples):
    step_ms = [1000.0 * s for s in report["step_s"]]
    if not step_ms:
        raise BenchError("no solve completed a step; see the failures above")
    first = [c[0] for c in report["counts"]]
    return {
        "solve_s": report["solve_s"],
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "steps": statistics.fmean(c[0] for c in first),
        "q": statistics.fmean(c[1] for c in first),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": report["peak_rss_mb"],
    }, step_ms


def print_report(args, manifest, report, values, units, step_ms):
    print(f"# ricadi benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  problems={len(manifest['problems'])} "
          f"solves={report['attempted']} measured={report['measured_s']:.1f}s")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {units[name]}")
    if not args.trace:
        samples = report["samples"]
        what = "solves" if manifest["unit"] == "solve" else "passes over the batch"
        tail = tail_percentile(samples)
        print(f"  solve_s: median over {len(samples)} {what} "
              + (f"(p{tail[0]} {tail[1]:.4f} s)" if tail else "(too few for a tail percentile)"))
        tail = tail_percentile(step_ms)
        if tail:
            print(f"  step latency over {len(step_ms)} steps: p{tail[0]} {tail[1]:.3f} ms")
        print(f"  host: median slow-down {report['host_factor']:.3f} against the reference "
              f"kernel; unadjusted solve_s {report['solve_wall_s']:.4f} s, "
              f"setup_s {report['setup_wall_s']:.4f} s (worker process)")
    else:
        print(f"  missing hooks: {', '.join(report['missing_hooks']) or 'none'}")
    print(f"  residual check: worst defect {report['max_defect']:.3g} "
          f"(limit {DEFECT_LIMIT:g}, relative to ||C*C||_2)")
    rate = report["failed"] / report["attempted"]
    print(f"  fail_rate {rate:.4f} ratio ({report['failed']} of {report['attempted']} solves)")
    for reason in report["failures"].values():
        print(f"    failure: {reason[:160]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "ricadi" / "__init__.py").is_file():
        raise BenchError(f"ricadi sources not found at {SRC / 'ricadi'}; "
                         "run from the root of a ricadi checkout")
    compileall.compile_dir(str(SRC / "ricadi"), quiet=1)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        spec = WORKLOADS[args.workload]
        manifest = {
            "unit": "batch" if spec["kind"] == "batch" else "solve",
            "check": "dense" if spec["kind"] == "batch" else "matfree",
            "problems": write_inputs(build_inputs(args.workload, args.seed), work),
            "warmup": WARMUP[spec["kind"]],
        }
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(run_worker(manifest_path, deadline,
                                                "--setup-only")["setup_s"])
        report = run_worker(manifest_path, deadline, "--seconds", str(args.seconds),
                            "--trace", str(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    if not Path(report["ricadi_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported ricadi from {report['ricadi_file']}, not from {SRC}")

    counts_repeat = all(c == runs[0] for runs in report["counts"] for c in runs)
    if not counts_repeat:
        print("error: steps or q differ between passes over the same inputs", file=sys.stderr)
    if report["incorrect"]:
        print(f"error: {report['incorrect']} solves failed the residual check",
              file=sys.stderr)

    if args.trace:
        values = report["layers"]
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        step_ms = None
    else:
        values, step_ms = end_to_end(report, setup_samples + [report["setup_s"]])
        units = END_TO_END
    print_report(args, manifest, report, values, units, step_ms)
    print(json.dumps({
        "correct": counts_repeat and report["incorrect"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
