"""Self-tests of the benchmark itself (not of ricadi).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
test_traced_counts_repeat_for_one_seed starts two benchmark runs and takes
about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ricadi as rc  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import SpanTree, Tracer  # noqa: E402

COUNT_UNITS = ("count", "ratio")


def _arrays(problem):
    return [problem[k] for k in ("A", "B", "C", "E") if problem[k] is not None]


def _same(a, b):
    if hasattr(a, "toarray"):
        return (a != b).nnz == 0
    return np.array_equal(a, b)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(workload):
    first = workloads.build_inputs(workload, 3)
    again = workloads.build_inputs(workload, 3)
    other = workloads.build_inputs(workload, 4)
    assert len(first) == len(again) == len(other)
    for p, q in zip(first, again):
        assert all(_same(a, b) for a, b in zip(_arrays(p), _arrays(q)))
    for p, q in zip(first, other):
        assert not np.array_equal(p["C"], q["C"])
        if p["B"] is not None:
            assert not np.array_equal(p["B"], q["B"])


def _traced_solve(problem, options, shifts):
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("solver.solve"):
            result = rc.solve(problem, options, shifts)
    finally:
        tracer.restore()
    return tracer, result


def test_spans_nest_across_expansion_threads():
    A = workloads.cd2d_operator(24, 10.0)
    rng = np.random.default_rng(0)
    problem = rc.ProblemSpec(A=A, B=rng.standard_normal((A.shape[0], 2)),
                             C=rng.standard_normal((2, A.shape[0])))
    options = rc.SolverOptions(mode="radi", tol=1e-9, parallel_width=2)
    shifts = workloads.cd2d_cyclic_shifts(24) * 10
    tracer, result = _traced_solve(problem, options, shifts)
    assert result.converged
    assert not tracer.missing
    tree = SpanTree(tracer.spans)
    assert len(tree.named("solver.solve")) == 1
    for span in tracer.spans:
        assert tree.self_time(span) >= 0.0
        parent = tree.by_id.get(span.parent)
        if parent is not None:
            assert parent.start <= span.start and span.end <= parent.end
        else:
            assert span.name == "solver.solve"
    factors = tree.named("shifted.factorize")
    assert factors and all(
        tree.by_id[f.parent].name == "brad.expand_parallel" for f in factors)
    # The wrapped functions are back in place.
    assert rc.brad.shifted.factorize is rc.shifted.factorize
    assert "traced" not in rc.brad.expand_parallel.__code__.co_name


def test_host_factor_brackets_the_interval():
    host = HostSpeed()
    host.starts, host.durations = [0.0, 1.0, 2.0], [0.01, 0.02, 0.04]
    nominal = hostspeed.REF_NOMINAL_S
    # The reference runs just before and just after the interval count.
    assert host.factor(1.1, 1.9) == pytest.approx(0.03 / nominal)
    assert host.factor(0.5, 1.5) == pytest.approx(0.025 / nominal)
    # Only one side exists at the ends of the run.
    assert host.factor(2.5, 3.0) == pytest.approx(0.04 / nominal)
    assert host.factor(-1.0, -0.5) == pytest.approx(0.01 / nominal)
    assert host.median_factor() == pytest.approx(0.02 / nominal)


def test_missing_hook_marks_metrics_absent():
    tracer = Tracer()
    assert not tracer.wrap(object(), "no_such_function", "shifted.factorize")
    values = layers.mark_absent({"brad.absorb_s": 1.0, "shifted.factorize_s": 2.0},
                                tracer.missing)
    assert values["shifted.factorize_s"] is None
    assert values["shifted.factorize_calls"] is None
    assert values["brad.absorb_s"] == 1.0


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in layers.METRICS.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_counts_repeat_for_one_seed():
    # The first run makes the minimum two rounds over the inputs; the second
    # stops part way through a later (traced) round.
    args = ("--workload", "cd2d-cyclic-parallel", "--seed", "5", "--trace", "1")
    first = _result(_bench(*args, "--seconds", "1"))
    second = _result(_bench(*args, "--seconds", "24"))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layers.METRICS)
    for name, metric in first["metrics"].items():
        assert metric["value"] is not None, name
        if metric["unit"] in COUNT_UNITS and name != "brad.expand_parallelism":
            assert metric["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
