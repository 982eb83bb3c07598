"""Tests for problem data containers and file I/O."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ricadi as rc
from conftest import random_problem, write_shift_file
from invariants import read_convergence_log
from ricadi.errors import MatrixMarketError
from ricadi.problems import write_matrix_market
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


@pytest.mark.parametrize("kind, body", [
    ("array", "2 2\n1\n2\n3\n4\n"),
    ("coordinate", "2 2 4\n1 1 1\n2 1 2\n1 2 3\n2 2 4\n"),
])
def test_read_mm_promotes_integer_data(tmp_path, kind, body):
    path = tmp_path / "int.mtx"
    path.write_text(f"%%MatrixMarket matrix {kind} integer general\n{body}")
    M = rc.read_matrix_market(path)
    assert sp.issparse(M) is (kind == "coordinate")
    assert M.dtype == np.float64
    np.testing.assert_array_equal(M.toarray() if sp.issparse(M) else M,
                                  [[1.0, 3.0], [2.0, 4.0]])


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


def test_write_mm_keeps_the_path_and_raises_when_it_cannot_write(tmp_path):
    M = np.ones((2, 1))
    write_matrix_market(M, tmp_path / "z.out")
    assert [p.name for p in tmp_path.iterdir()] == ["z.out"]
    with pytest.raises(FileNotFoundError):
        write_matrix_market(M, tmp_path / "missing" / "z.mtx")


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
        ConvergenceRecord(1, 2, 0.123456789012345678, 0.01, 0.02, 0.04,
                          shift_s=0.01),
        ConvergenceRecord(2, 4, 1.7e-11, 0.5, 1e-4, 0.6001, shift_s=0.1),
    ]
    rc.write_convergence_log(records, path)
    back = read_convergence_log(path)
    assert len(back) == len(records)
    for a, b in zip(back, records):
        assert a.iter == b.iter and a.subspace_dim == b.subspace_dim
        for name in ("rel_residual", "expansion_s", "absorb_s", "total_s",
                     "shift_s"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-15


def test_convergence_log_reads_six_column_log(tmp_path):
    # logs written before shift_s was split out of expansion_s
    path = tmp_path / "old.csv"
    path.write_text("iter,subspace_dim,rel_residual,expansion_s,absorb_s,total_s\n"
                    "1,2,0.5,0.25,0.125,0.375\n")
    (rec,) = read_convergence_log(path)
    assert (rec.iter, rec.expansion_s, rec.total_s) == (1, 0.25, 0.375)
    assert rec.shift_s == 0.0


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
    with pytest.raises(ValueError, match="n must be at least 1"):
        rc.ProblemSpec(A=np.zeros((0, 0)), B=None, C=np.ones((1, 0)))
    with pytest.raises(ValueError, match="C must have at least one row"):
        rc.ProblemSpec(A=A, B=None, C=np.ones((0, 3)))
    with pytest.raises(ValueError, match="E must be 3x3"):
        rc.ProblemSpec(A=A, B=None, C=np.ones((1, 3)), E=sp.identity(2))


@pytest.mark.parametrize("complex_data", [False, True])
def test_vector_b_is_one_input_column(complex_data):
    # a length-n B used to be read as one row and rejected
    matrix = random_problem(13, n=40, m=1, p=2, complex_data=complex_data)
    vector = rc.ProblemSpec(A=matrix.A, B=matrix.B[:, 0], C=matrix.C)
    assert vector.B.shape == (40, 1) and vector.B.flags["C_CONTIGUOUS"]
    assert vector.B.tobytes() == matrix.B.tobytes()
    options = rc.SolverOptions(mode="hybrid", tol=1e-10, max_iter=40)
    want = rc.solve(matrix, options, rc.HamiltonianShifts())
    got = rc.solve(vector, options, rc.HamiltonianShifts())
    assert want.converged
    for name in ("Z", "R"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    with pytest.raises(ValueError, match=re.escape("B must have 40 rows, got (39,)")):
        rc.ProblemSpec(A=matrix.A, B=np.ones(39), C=matrix.C)


@pytest.mark.parametrize("fmt", ["csr", "coo"])
def test_sparse_b_and_c_solve_as_their_dense_form(fmt):
    # ProblemSpec stores B and C dense whatever their input format
    dense = random_problem(12, n=40, m=2, p=2)
    sparse = rc.ProblemSpec(A=dense.A, B=sp.coo_matrix(dense.B).asformat(fmt),
                            C=sp.coo_matrix(dense.C).asformat(fmt))
    for name in ("B", "C"):
        M = getattr(sparse, name)
        assert isinstance(M, np.ndarray)
        assert M.tobytes() == getattr(dense, name).tobytes()
    options = rc.SolverOptions(mode="hybrid", tol=1e-10, max_iter=40)
    want = rc.solve(dense, options, rc.HamiltonianShifts())
    got = rc.solve(sparse, options, rc.HamiltonianShifts())
    assert want.converged
    for name in ("Z", "R"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("name", ["A", "B", "C", "E"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_problem_spec_rejects_non_finite(name, bad):
    mats = {"A": sp.csr_matrix(-np.eye(3)), "B": np.ones((3, 1)),
            "C": np.ones((1, 3)), "E": sp.csr_matrix(np.eye(3))}
    M = mats[name].astype(complex) if isinstance(bad, complex) else mats[name]
    M[0, 0] = bad
    mats[name] = M
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        rc.ProblemSpec(**mats)


def test_problem_spec_is_real():
    A = sp.csr_matrix(-np.eye(2))
    assert rc.ProblemSpec(A=A, B=np.ones((2, 1)), C=np.ones((1, 2))).is_real
    assert not rc.ProblemSpec(A=A, B=np.ones((2, 1)) * (1 + 1j),
                              C=np.ones((1, 2))).is_real
    # complex dtype with zero imaginary part is real data, stored real-typed
    prob = rc.ProblemSpec(A=A.astype(complex), B=np.ones((2, 1), complex),
                          C=np.ones((1, 2)), E=np.eye(2, dtype=complex))
    assert prob.is_real
    for M in (prob.A, prob.E):
        assert M.format == "csr" and M.dtype == np.float64
    assert prob.B.dtype == np.float64 and prob.B.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(prob.A.toarray(), -np.eye(2))


@pytest.mark.parametrize("n", [30, 600])
@pytest.mark.parametrize("name", ["A", "E"])
@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_single_precision_data_is_solved_in_double(n, name, dtype):
    # solved in single precision, the residual defect stalls near 7e-8, and
    # at n = 600 a float32 E's SuperLU factor cannot solve a float64 block
    rng = np.random.default_rng(7)
    d = np.linspace(1.0, 50.0, n)
    mats = {"A": sp.diags(-d).tocsr(), "E": sp.diags(1.0 + d / 50.0).tocsr()}
    if dtype == np.complex64:
        mats[name] = mats[name] + sp.diags(1j * np.linspace(0.0, 3.0, n))
    mats[name] = mats[name].astype(dtype).tocsr()
    prob = rc.ProblemSpec(B=rng.standard_normal((n, 1)),
                          C=rng.standard_normal((2, n)), **mats)
    assert getattr(prob, name).dtype == np.result_type(dtype, np.float64)
    for mode in ("r2adi", "radi"):
        res = rc.solve(prob, rc.SolverOptions(mode=mode, tol=1e-9))
        assert res.converged, (mode, res.message)


@pytest.mark.parametrize("name, shape", [("B", (30, 1, 1)), ("C", (1, 30, 1)),
                                         ("A", (30, 30, 1)), ("E", (1, 30, 30))])
def test_problem_spec_rejects_more_than_two_dimensions(name, shape):
    mats = {"A": sp.csr_matrix(-np.eye(30)), "B": np.ones((30, 1)),
            "C": np.ones((1, 30)), "E": None, name: np.ones(shape)}
    with pytest.raises(ValueError, match=f"{name} must have at most 2 dimensions"):
        rc.ProblemSpec(**mats)


def test_double_precision_csr_input_is_not_copied():
    A = random_problem(14, n=40).A
    assert A.dtype == np.float64 and A.format == "csr"
    prob = rc.ProblemSpec(A=A, B=np.ones((40, 1)), C=np.ones((1, 40)), E=A)
    for M in (prob.A, prob.E):
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(M, part), getattr(A, part)), part


def test_load_problem(tmp_path):
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


def test_load_problem_fixes_each_format(tmp_path):
    # A and E written as arrays, B and C as coordinates load into the same
    # formats, and solve bitwise the same, as the other way round
    prob = random_problem(13, n=20, m=2, p=2, generalized=True)
    loaded = []
    for case, (as_operator, as_block) in {
            "array-ops": (sp.csr_matrix.toarray, sp.csr_matrix),
            "coordinate-ops": (sp.csr_matrix, np.asarray)}.items():
        paths = {}
        for name in ("a", "b", "c", "e"):
            M = getattr(prob, name.upper())
            paths[name] = tmp_path / f"{case}-{name}.mtx"
            write_matrix_market(as_operator(M) if name in "ae" else as_block(M),
                                paths[name])
        back = rc.load_problem(paths["a"], paths["c"], b_path=paths["b"],
                               e_path=paths["e"])
        assert back.A.format == back.E.format == "csr"
        assert isinstance(back.B, np.ndarray) and isinstance(back.C, np.ndarray)
        loaded.append(back)
    options = rc.SolverOptions(tol=1e-10, max_iter=40)
    first, second = (rc.solve(p, options, rc.HamiltonianShifts()) for p in loaded)
    assert first.converged
    for name in ("Z", "R"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
