"""Tests for problem data containers and file I/O."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ricadi as rc
from ricadi.errors import MatrixMarketError
from ricadi.problems import (
    read_convergence_log,
    write_matrix_market,
    write_shift_file,
)
from ricadi.solver import ConvergenceRecord


def test_read_mm_identity_coordinate(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 1.0\n"
    )
    M = rc.read_matrix_market(path)
    assert sp.issparse(M)
    np.testing.assert_array_equal(M.toarray(), np.eye(2))


def test_read_mm_symmetric_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n"
    )
    M = rc.read_matrix_market(path)
    np.testing.assert_allclose(
        M.toarray() if sp.issparse(M) else M, [[2.0, 1.0], [1.0, 3.0]]
    )


def test_read_mm_complex_entry(tmp_path):
    path = tmp_path / "cplx.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n1 1 1.0 -2.0\n"
    )
    M = rc.read_matrix_market(path)
    val = M.toarray()[0, 0] if sp.issparse(M) else M[0, 0]
    assert val == 1.0 - 2.0j


def test_read_mm_dense_array(tmp_path):
    path = tmp_path / "arr.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )
    M = rc.read_matrix_market(path)
    assert not sp.issparse(M)
    np.testing.assert_allclose(M, [[1.0, 3.0], [2.0, 4.0]])
    assert M.dtype == np.float64  # integer data promoted


def test_read_mm_malformed(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("this is not a matrix market file\n")
    with pytest.raises(MatrixMarketError):
        rc.read_matrix_market(path)


def test_read_mm_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        rc.read_matrix_market(tmp_path / "nope.mtx")


def test_write_mm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 2))
    path = tmp_path / "m.mtx"
    write_matrix_market(M, path)
    np.testing.assert_allclose(rc.read_matrix_market(path), M, atol=1e-14)


def test_shift_file_single(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.0 0.0\n")
    assert list(rc.read_shift_file(path)) == [1 + 0j]


def test_shift_file_pair(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2.0 3.0\n2.0 -3.0\n")
    assert list(rc.read_shift_file(path)) == [2 + 3j, 2 - 3j]


def test_shift_file_rejects_negative_real_part(tmp_path):
    path = tmp_path / "s.txt"
    for line, match in (("-1.0 0.0", "real part must be positive"),
                        ("inf 0", "must be finite"),
                        ("1 nan", "must be finite")):
        path.write_text(f"1.0 0.0\n{line}\n")
        with pytest.raises(ValueError, match=f":2: .*{match}"):
            rc.read_shift_file(path)


def test_shift_file_comments_and_blanks(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n\n1.0 0.5  # trailing\n")
    assert list(rc.read_shift_file(path)) == [1 + 0.5j]


def test_shift_file_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1.0 0.0\n2.0\n")
    with pytest.raises(ValueError, match=":2:"):
        rc.read_shift_file(path)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0.01, 1e6), st.floats(-1e6, 1e6)), max_size=8))
def test_shift_file_round_trip(tmp_path_factory, pairs):
    shifts = [complex(re, im) for re, im in pairs]
    path = tmp_path_factory.mktemp("shifts") / "s.txt"
    write_shift_file(shifts, path)
    assert list(rc.read_shift_file(path)) == shifts


def test_convergence_log_empty(tmp_path):
    path = tmp_path / "log.csv"
    rc.write_convergence_log([], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("iter,")


def test_convergence_log_one_record(tmp_path):
    path = tmp_path / "log.csv"
    rec = ConvergenceRecord(1, 2, 0.5, 0.01, 0.02, 0.03)
    rc.write_convergence_log([rec], path)
    assert len(path.read_text().strip().splitlines()) == 2


def test_convergence_log_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    records = [
        ConvergenceRecord(1, 2, 0.123456789012345678, 0.01, 0.02, 0.03),
        ConvergenceRecord(2, 4, 1.7e-11, 0.5, 1e-4, 0.5001),
    ]
    rc.write_convergence_log(records, path)
    back = read_convergence_log(path)
    assert len(back) == len(records)
    for a, b in zip(back, records):
        assert a.iter == b.iter and a.subspace_dim == b.subspace_dim
        for name in ("rel_residual", "expansion_s", "absorb_s", "total_s"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-15


def test_problem_spec_lyapunov_default():
    prob = rc.ProblemSpec(A=sp.csr_matrix(-np.eye(3)), B=None,
                          C=np.ones((1, 3)))
    assert prob.m == 0 and prob.B.shape == (3, 0)
    assert prob.n == 3 and prob.p == 1


def test_problem_spec_validation():
    A = sp.csr_matrix(-np.eye(3))
    with pytest.raises(ValueError, match="rows"):
        rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=np.ones((1, 3)))
    with pytest.raises(ValueError, match="columns"):
        rc.ProblemSpec(A=A, B=np.ones((3, 1)), C=np.ones((1, 2)))
    with pytest.raises(ValueError, match="square"):
        rc.ProblemSpec(A=sp.csr_matrix(np.ones((2, 3))), B=None,
                       C=np.ones((1, 3)))


def test_problem_spec_is_real():
    A = sp.csr_matrix(-np.eye(2))
    assert rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=np.ones((1, 2))).is_real
    assert not rc.ProblemSpec(A=A, B=np.ones((2, 1)) * (1 + 1j),
                              C=np.ones((1, 2))).is_real
    # complex dtype with zero imaginary part still counts as real data
    assert rc.ProblemSpec(A=A.astype(complex), B=np.ones((2, 1)),
                          C=np.ones((1, 2))).is_real


def test_load_problem(tmp_path):
    from conftest import random_problem

    prob = random_problem(11, n=8, m=2, p=1, generalized=True)
    paths = {}
    for name, M in (("a", prob.A), ("b", prob.B), ("c", prob.C),
                    ("e", prob.E)):
        paths[name] = tmp_path / f"{name}.mtx"
        write_matrix_market(M, paths[name])
    back = rc.load_problem(paths["a"], paths["c"], b_path=paths["b"],
                           e_path=paths["e"])
    np.testing.assert_allclose(back.A.toarray(), prob.A.toarray(), atol=1e-14)
    np.testing.assert_allclose(back.B, prob.B, atol=1e-14)
    np.testing.assert_allclose(back.C, prob.C, atol=1e-14)
    np.testing.assert_allclose(back.E.toarray(), prob.E.toarray(), atol=1e-14)

    lyap = rc.load_problem(paths["a"], paths["c"])
    assert lyap.m == 0 and lyap.E is None
