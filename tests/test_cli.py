"""Tests for the command-line driver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ricadi as rc
from conftest import random_problem, singular_e_problem, write_shift_file
from ricadi.cli import main, run
from ricadi.oracle import DENSE_ORACLE_MAX_N, residual_defect
from ricadi.problems import read_convergence_log, write_matrix_market


def write_problem(prob, tmp_path, shifts=None):
    args = []
    for flag, M in (("--a", prob.A), ("--b", prob.B), ("--c", prob.C),
                    ("--e", prob.E)):
        if M is None or (flag == "--b" and M.shape[1] == 0):
            continue
        path = tmp_path / f"{flag[2:]}.mtx"
        write_matrix_market(M, path)
        args += [flag, str(path)]
    if shifts is not None:
        spath = tmp_path / "shifts.txt"
        write_shift_file(shifts, spath)
        args += ["--shifts", str(spath)]
    return args


def scalar_args(tmp_path):
    import scipy.sparse as sp

    prob = rc.ProblemSpec(A=sp.csr_matrix([[-1.0]]), B=np.array([[1.0]]),
                          C=np.array([[1.0]]))
    return write_problem(prob, tmp_path, shifts=[1.0, np.sqrt(2.0)])


def test_cli_scalar_pipeline(tmp_path, capsys):
    code = run(scalar_args(tmp_path) + ["--mode", "radi", "--tol", "1e-9"])
    out = capsys.readouterr().out
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("RESULT"))
    relres = float(line.split("relres=")[1])
    assert relres < 1e-9
    assert "iter=2" in line


def test_cli_missing_shifts(tmp_path, capsys):
    args = scalar_args(tmp_path)
    idx = args.index("--shifts")
    del args[idx:idx + 2]
    code = run(args)
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err and "--shifts" in err


@pytest.mark.parametrize("extra, flag", [
    (["--shift-strategy", "hamiltonian"], "--shifts"),
    (["--window", "3"], "--window"),
])
def test_cli_rejects_flag_the_strategy_does_not_use(tmp_path, capsys,
                                                    extra, flag):
    code = run(scalar_args(tmp_path) + extra)
    captured = capsys.readouterr()
    assert code == 1 and "RESULT" not in captured.out
    line = captured.err.splitlines()[-1]
    assert line.startswith("ricadi: error:") and flag in line


def test_cli_empty_shift_file(tmp_path, capsys):
    args = scalar_args(tmp_path)
    path = args[args.index("--shifts") + 1]
    with open(path, "w") as fh:
        fh.write("# no shifts\n")
    code = run(args)
    captured = capsys.readouterr()
    assert code == 1 and "RESULT" not in captured.out
    assert captured.err.startswith("ricadi: error:")
    assert "shift list is empty" in captured.err


def test_cli_hamiltonian_strategy_and_verify(tmp_path, capsys):
    prob = random_problem(80, n=60, m=2, p=2)
    args = write_problem(prob, tmp_path)
    code = run(args + ["--shift-strategy", "hamiltonian", "--tol", "1e-9",
                       "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("verify"))
    err = float(line.rsplit("=", 1)[1])
    assert err <= 1e-6


def test_cli_outputs(tmp_path, capsys):
    args = scalar_args(tmp_path)
    zpath = tmp_path / "z.mtx"
    lpath = tmp_path / "log.csv"
    code = run(args + ["--out-z", str(zpath), "--out-log", str(lpath)])
    capsys.readouterr()
    assert code == 0
    Z = np.atleast_2d(rc.read_matrix_market(zpath))
    np.testing.assert_allclose(Z @ Z.conj().T, [[np.sqrt(2) - 1]],
                               atol=1e-10)
    records = read_convergence_log(lpath)
    assert len(records) == 2 and records[-1].rel_residual < 1e-9


@pytest.mark.parametrize("flag", ["--out-log", "--out-z"])
def test_cli_unwritable_output_is_an_error(tmp_path, capsys, flag):
    # the solve converges; only its output cannot be written
    code = run(scalar_args(tmp_path) + [flag, str(tmp_path / "missing" / "out")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("ricadi: error:") and "Traceback" not in err
    assert any(l.startswith("RESULT") for l in out.splitlines())


def test_cli_verify_without_a_stabilizing_solution(tmp_path, capsys):
    # A = tridiag(1, 0.5, 1) is unstable and B = 0, so the Lyapunov equation
    # has no stabilizing solution and the dense oracle gives no reference
    n = 30
    A = sp.diags([np.ones(n - 1), np.full(n, 0.5), np.ones(n - 1)], [-1, 0, 1],
                 format="csr")
    prob = rc.ProblemSpec(A=A, B=None,
                          C=np.random.default_rng(0).standard_normal((1, n)))
    code = run(write_problem(prob, tmp_path)
               + ["--shift-strategy", "hamiltonian", "--max-iter", "5", "--verify"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2  # not converged
    assert "verify         : no reference (no stabilizing solution found" in "\n".join(lines)
    assert lines[-1].startswith("RESULT")


def test_cli_verify_estimates_the_residual_beyond_the_dense_oracle(tmp_path, capsys):
    n = DENSE_ORACLE_MAX_N + 1
    prob = rc.ProblemSpec(A=sp.diags(-np.arange(1.0, n + 1)), B=None,
                          C=np.ones((1, n)))
    code = run(write_problem(prob, tmp_path)
               + ["--shift-strategy", "hamiltonian", "--verify"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    # the library's estimate of the same answer, as solve computed it
    res = rc.solve(prob, rc.SolverOptions(), rc.HamiltonianShifts())
    defect = residual_defect(prob, res.Z, res.R)
    assert defect <= 1e-12
    assert (f"verify         : |R(ZZ*) - RR*| / |C*C| ~ {defect:.3e} (estimate)"
            in lines)
    assert lines[-1].startswith("RESULT")


def test_cli_not_converged_exit_code(tmp_path, capsys):
    prob = random_problem(81, n=30, m=1, p=1)
    args = write_problem(prob, tmp_path, shifts=[1.0])
    lpath = tmp_path / "log.csv"
    code = run(args + ["--tol", "1e-12", "--out-log", str(lpath)])
    out = capsys.readouterr().out
    assert code == 2
    assert "exhausted" in out
    assert len(read_convergence_log(lpath)) == 1  # log still written


def test_cli_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix\n")
    spath = tmp_path / "s.txt"
    write_shift_file([1.0], spath)
    code = run(["--a", str(bad), "--c", str(bad), "--shifts", str(spath)])
    err = capsys.readouterr().err
    assert code == 1 and "error" in err


def test_cli_lyapunov_without_b(tmp_path, capsys):
    import scipy.sparse as sp

    prob = rc.ProblemSpec(A=sp.csr_matrix(np.diag([-1.0, -2.0, -3.0])),
                          B=None, C=np.ones((1, 3)))
    args = write_problem(prob, tmp_path, shifts=[1.0, 2.0, 3.0])
    code = run(args + ["--tol", "1e-10"])
    capsys.readouterr()
    assert code in (0, 2)


def test_cli_zero_c_is_an_input_error(tmp_path, capsys):
    args = []
    for flag, M in (("--a", -np.eye(3)), ("--c", np.zeros((1, 3)))):
        write_matrix_market(M, tmp_path / f"{flag[2:]}.mtx")
        args += [flag, str(tmp_path / f"{flag[2:]}.mtx")]
    write_shift_file([1.0], tmp_path / "shifts.txt")
    code = run(args + ["--shifts", str(tmp_path / "shifts.txt")])
    assert code == 1
    assert "ricadi: error: C must not be zero" in capsys.readouterr().err


def test_cli_window_below_one_is_an_input_error(tmp_path, capsys):
    prob = random_problem(81, n=20)
    code = run(write_problem(prob, tmp_path)
               + ["--shift-strategy", "hamiltonian", "--window", "0"])
    assert code == 1
    assert "ricadi: error: window must be at least 1" in capsys.readouterr().err


def test_cli_singular_e_is_one_error_with_warnings_as_errors(tmp_path):
    # scipy's lu_factor first warned "Diagonal number 60 is exactly zero",
    # and under -W error the CLI died of that warning with a traceback
    args = write_problem(singular_e_problem(82, 60), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(rc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "ricadi.cli", *args,
                          "--shift-strategy", "hamiltonian"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr == "ricadi: error: mass matrix E is singular\n"
    assert out.stdout == ""


def test_cli_main_raises_system_exit(tmp_path):
    with pytest.raises(SystemExit):
        import sys

        argv = sys.argv
        sys.argv = ["ricadi"] + scalar_args(tmp_path)
        try:
            main()
        finally:
            sys.argv = argv


def test_cli_rejects_realify_flag(tmp_path, capsys):
    # realification follows the data; there is no option to switch it
    with pytest.raises(SystemExit) as exc:
        run(scalar_args(tmp_path) + ["--realify", "on"])
    assert exc.value.code == 2
    assert "--realify" in capsys.readouterr().err


def test_cli_summary_labels(tmp_path, capsys):
    # a real problem with a complex shift file: the pair is realified
    prob = random_problem(82, n=25, m=1, p=1)
    args = write_problem(prob, tmp_path,
                         shifts=[1 + 1j, 1 - 1j, 2.0, 3.0, 5.0])
    assert run(args + ["--tol", "1e-12"]) in (0, 2)
    labels = [l.split(":")[0].strip()
              for l in capsys.readouterr().out.splitlines() if ":" in l]
    assert labels[:7] == ["steps", "subspace dim", "rel. residual",
                          "shift selection", "expand", "absorption", "total"]
