"""The package surface: its public names and what `import ricadi` loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import invariants
import ricadi as rc
import ricadi.brad as brad
import ricadi.kernels as kernels

SRC = Path(rc.__file__).resolve().parent

# helpers only the tests call; they live in tests/invariants.py
TEST_ONLY = ("brad_residual_check", "closed_loop_pole_check",
             "eigenvalue_match_distance", "read_convergence_log")

PUBLIC = {
    "ConvergenceRecord", "HamiltonianShifts", "PrecomputedShifts",
    "ProblemSpec", "SolveResult", "SolverOptions", "dense_care",
    "dense_residual", "load_problem", "read_matrix_market", "read_shift_file",
    "solve", "write_convergence_log",
}

# One small solve in a fresh interpreter; prints what it finds loaded.
FRESH = """
import json, sys
import numpy as np
import scipy.sparse as sp
import ricadi
after_import = "scipy.optimize" in sys.modules
A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
prob = ricadi.ProblemSpec(A=A, B=np.ones((3, 1)), C=np.ones((1, 3)))
res = ricadi.solve(prob, ricadi.SolverOptions(tol=1e-9), ricadi.HamiltonianShifts())
print(json.dumps({
    "converged": bool(res.converged),
    "optimize_after_import": after_import,
    "optimize_after_solve": "scipy.optimize" in sys.modules,
    "attributes": [m for m in ("brad", "shifted", "oracle") if hasattr(ricadi, m)],
}))
"""


def test_public_names():
    assert len(rc.__all__) == len(PUBLIC) == 13
    assert set(rc.__all__) == PUBLIC
    assert all(hasattr(rc, name) for name in rc.__all__)


def test_import_and_solve_leave_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", FRESH], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["converged"]
    assert not seen["optimize_after_import"]
    assert not seen["optimize_after_solve"]
    assert seen["attributes"] == ["brad", "shifted", "oracle"]


def assert_imports_no_ricadi_module(path):
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("ricadi")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ricadi") for a in node.names)


def test_oracle_imports_no_other_ricadi_module():
    assert_imports_no_ricadi_module(SRC / "oracle.py")


def test_invariants_import_no_ricadi_module():
    assert_imports_no_ricadi_module(invariants.__file__)


def test_shifted_keeps_no_module_state():
    # a module-level cache in shifted once kept a failed solve's A alive:
    # shifted binds only imports, functions, classes and its three integer
    # constants
    tree = ast.parse((SRC / "shifted.py").read_text())
    constants = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            constants += [ast.unparse(t) for t in node.targets]
            assert isinstance(node.value, ast.Constant), ast.unparse(node)
            assert type(node.value.value) is int, ast.unparse(node)
        else:
            assert isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                     ast.ClassDef)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            ), ast.unparse(node)
    assert constants == ["DENSE_LU_BELOW_N", "SUPERLU_RELAX", "SUPERLU_PANEL_SIZE"]
    assert not any(isinstance(n, ast.Global) for n in ast.walk(tree))


def test_verification_lives_only_in_oracle():
    # solve's own check is the oracle's; the test-only checks are defined in
    # tests/invariants.py and in no module of the package
    assert rc.oracle.residual_defect.__module__ == "ricadi.oracle"
    for name in TEST_ONLY + ("residual_defect",):
        assert not hasattr(brad, name) and not hasattr(kernels, name)
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    for name in TEST_ONLY:
        assert getattr(invariants, name).__module__ == "invariants"
        assert name not in defined
        assert not any(hasattr(m, name) for m in (rc, rc.oracle, rc.problems))
