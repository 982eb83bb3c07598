"""Per-layer metrics of the traced run: where the hooks go and what they yield.

The layers are ricadi's modules. Each metric names the hooks it needs; when
one of them could not be installed (the function was renamed or merged), the
metric is reported as absent (``None``) rather than failing the run.
"""

import importlib

from tracer import SpanTree

EXPAND = ("brad.expand_simple", "brad.expand_parallel", "brad.expand_realified")
ABSORB = ("brad.absorb_r2adi", "brad.absorb_radi")
SHIFTED_WORK = ("shifted.factorize", "shifted.solve_factored", "shifted.smw_solve")
KERNELS = {
    "sylvester": ("brad", "solve_sylvester_small"),
    "lyapunov": ("brad", "solve_lyapunov_small"),
    "cholesky": ("brad", "cholesky_upper"),
    "gram_norm": ("solver", "spectral_norm_gram"),
}

# name -> (unit, hooks it needs). The benchmark's own spans ("solver.solve",
# "problems.load", "oracle.verify") are always present.
METRICS = {
    "solver.loop_self_s": ("s", ()),
    "shifts.select_calls": ("count", ("shifts.next_shifts",)),
    "shifts.select_s": ("s", ("shifts.next_shifts",)),
    "shifts.projected_hamiltonian_s": ("s", ("shifts.projected_hamiltonian",)),
    "shifts.e_factor_count": ("count", ("shifts.splu",)),
    "shifts.e_factor_s": ("s", ("shifts.splu",)),
    "shifted.factorize_calls": ("count", ("shifted.factorize",)),
    "shifted.factorize_complex_calls": ("count", ("shifted.factorize",)),
    "shifted.factorize_s": ("s", ("shifted.factorize",)),
    "shifted.distinct_shifts": ("count", ("shifted.factorize",)),
    "shifted.refactor_ratio": ("ratio", ("shifted.factorize",)),
    "shifted.lu_nnz_mean": ("count", ("shifted.factorize", "shifted.splu")),
    "shifted.solve_s": ("s", ("shifted.solve_factored", "shifted.smw_solve")),
    "shifted.smw_calls": ("count", ("shifted.smw_solve",)),
    "brad.expand_s": ("s", EXPAND),
    "brad.expand_self_s": ("s", EXPAND + SHIFTED_WORK),
    "brad.expand_parallelism": ("ratio", EXPAND + SHIFTED_WORK + ("brad.pool",)),
    "brad.expand_simple_calls": ("count", ("brad.expand_simple",)),
    "brad.expand_parallel_calls": ("count", ("brad.expand_parallel",)),
    "brad.expand_realified_calls": ("count", ("brad.expand_realified",)),
    "brad.absorb_r2adi_calls": ("count", ("brad.absorb_r2adi",)),
    "brad.absorb_radi_calls": ("count", ("brad.absorb_radi",)),
    "brad.absorb_s": ("s", ABSORB),
    "brad.absorb_self_s": ("s", ABSORB + tuple("kernels." + k for k in KERNELS)),
    "brad.state_mb": ("MB", ()),
}
for _k in KERNELS:
    METRICS[f"kernels.{_k}_calls"] = ("count", (f"kernels.{_k}",))
    METRICS[f"kernels.{_k}_s"] = ("s", (f"kernels.{_k}",))
METRICS.update({
    "problems.load_s": ("s", ()),
    "problems.read_mm_calls": ("count", ("problems.read_mm",)),
    "problems.read_mm_s": ("s", ("problems.read_mm",)),
    "oracle.verify_s": ("s", ()),
    "trace.solve_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
})


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _factor_info(span, args, kwargs, result):
    A = args[0] if args else kwargs.get("A")
    mu = complex(kwargs["mu"] if "mu" in kwargs else (args[2] if len(args) > 2 else 0.0))
    span.info.update(key=(id(A), mu), complex=mu.imag != 0, n=A.shape[0])


def _lu_info(span, args, kwargs, result):
    # Entries SuperLU stores for L and U together (supernodal storage).
    span.info["nnz"] = result.nnz


def install(tracer):
    """Hook every solve-time layer function (see install_problems for loading)."""
    brad = _module("ricadi.brad")
    solver = _module("ricadi.solver")
    shifts = _module("ricadi.shifts")
    shifted = getattr(brad, "shifted", None)
    for name in EXPAND + ABSORB:
        tracer.wrap(brad, name.split(".")[1], name)
    tracer.propagate_through_pool(brad, "ThreadPoolExecutor", "brad.pool")
    tracer.wrap(shifted, "factorize", "shifted.factorize", on_result=_factor_info)
    tracer.wrap(shifted, "solve_factored", "shifted.solve_factored")
    tracer.wrap(shifted, "smw_solve", "shifted.smw_solve")
    tracer.wrap_module_function(shifted, "spla", "splu", "shifted.splu",
                                on_result=_lu_info)
    tracer.wrap(shifts, "projected_hamiltonian", "shifts.projected_hamiltonian")
    tracer.wrap_module_function(shifts, "spla", "splu", "shifts.splu")
    modules = {"brad": brad, "solver": solver}
    for short, (owner, attr) in KERNELS.items():
        tracer.wrap(modules[owner], attr, f"kernels.{short}")


def install_problems(tracer):
    tracer.wrap(_module("ricadi.problems"), "read_matrix_market", "problems.read_mm")


def _sum(spans):
    return sum(s.duration for s in spans)


def solve_metrics(spans, state_mb):
    """Metrics of one sample (one solve, or one pass over a batch)."""
    tree = SpanTree(spans)
    out = {"solver.loop_self_s": sum(tree.self_time(s) for s in tree.named("solver.solve"))}

    select = tree.named("shifts.next_shifts")
    out["shifts.select_calls"] = len(select)
    out["shifts.select_s"] = _sum(select)
    out["shifts.projected_hamiltonian_s"] = _sum(tree.named("shifts.projected_hamiltonian"))
    efac = tree.named("shifts.splu")
    out["shifts.e_factor_count"] = len(efac)
    out["shifts.e_factor_s"] = _sum(efac)

    factors = tree.named("shifted.factorize")
    out["shifted.factorize_calls"] = len(factors)
    out["shifted.factorize_complex_calls"] = sum(1 for s in factors if s.info.get("complex"))
    out["shifted.factorize_s"] = _sum(factors)
    distinct = len({s.info.get("key") for s in factors})
    out["shifted.distinct_shifts"] = distinct
    out["shifted.refactor_ratio"] = len(factors) / distinct if distinct else 0.0
    nnz = []
    for f in factors:
        lus = [c for c in tree.children.get(f.id, ()) if c.name == "shifted.splu"]
        # No sparse LU below the factor: the dense branch stores n*n entries.
        nnz.extend([c.info["nnz"] for c in lus] or [f.info["n"] ** 2])
    out["shifted.lu_nnz_mean"] = sum(nnz) / len(nnz) if nnz else 0.0
    out["shifted.solve_s"] = _sum(tree.named("shifted.solve_factored", "shifted.smw_solve"))
    out["shifted.smw_calls"] = len(tree.named("shifted.smw_solve"))

    expands = tree.named(*EXPAND)
    top = [s for s in expands if not any(a.name in EXPAND for a in tree.ancestors(s))]
    out["brad.expand_s"] = _sum(top)
    out["brad.expand_self_s"] = sum(tree.self_time(s) for s in expands)
    busy = sum(d.duration for s in top for d in tree.descendants(s)
               if d.name in SHIFTED_WORK)
    out["brad.expand_parallelism"] = busy / out["brad.expand_s"] if top else 0.0
    for name in EXPAND + ABSORB:
        out[f"{name}_calls"] = len(tree.named(name))
    absorbs = tree.named(*ABSORB)
    out["brad.absorb_s"] = _sum(absorbs)
    out["brad.absorb_self_s"] = sum(tree.self_time(s) for s in absorbs)
    out["brad.state_mb"] = state_mb

    for short in KERNELS:
        calls = tree.named(f"kernels.{short}")
        out[f"kernels.{short}_calls"] = len(calls)
        out[f"kernels.{short}_s"] = _sum(calls)
    out["oracle.verify_s"] = _sum(tree.named("oracle.verify"))
    return out


def load_metrics(spans):
    """Metrics of loading the workload's Matrix Market files (once per run)."""
    reads = [s for s in spans if s.name == "problems.read_mm"]
    return {
        "problems.load_s": _sum(s for s in spans if s.name == "problems.load"),
        "problems.read_mm_calls": len(reads),
        "problems.read_mm_s": _sum(reads),
    }


def mark_absent(values, missing):
    """Replace every metric that needs a missing hook by None."""
    return {name: (None if set(METRICS[name][1]) & missing else values.get(name))
            for name in METRICS}
