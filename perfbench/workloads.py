"""Seeded problem generators and the four benchmark workloads.

The operators A and E are fixed by the workload; the ``--seed`` argument
draws the input and output matrices B and C. The same seed always gives
bit-identical inputs.
"""

import math

import numpy as np
import scipy.sparse as sp

TOL = 1e-9

# Independent residual check: the defect ||R(ZZ*) - RR*|| relative to
# ||C*C||_2 may be at most tol, so the true residual of a converged solve is
# below 2 tol. Roundoff puts the defect near 1e-15 (cd2d, small-batch) and
# 1e-12 (fem1d); a bookkeeping error in R shows up at tol or above.
DEFECT_LIMIT = TOL


def _tridiag(n, lower, diag, upper):
    return sp.diags([np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
                    [-1, 0, 1], format="csr")


def cd2d_operator(grid, convection):
    """Kron-built 2-D convection-diffusion operator on the unit square.

    Central differences on a grid x grid interior mesh (h = 1/(grid+1)) for
    Laplace(u) - convection * (u_x + u_y) with Dirichlet boundaries.
    """
    h = 1.0 / (grid + 1)
    d, c = 1.0 / h**2, convection / (2.0 * h)
    T = _tridiag(grid, d + c, -2.0 * d, d - c)
    I = sp.identity(grid, format="csr")
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def cd2d_cyclic_shifts(grid, count=8):
    """Real log-spaced shifts across the Laplacian's spectral interval."""
    h = 1.0 / (grid + 1)
    return list(np.geomspace(2.0 * math.pi**2, 8.0 / h**2, count))


def fem1d_pair(n):
    """Linear-FEM stiffness and (tridiagonal) mass matrix on (0, 1)."""
    h = 1.0 / (n + 1)
    K = _tridiag(n, -1.0 / h, 2.0 / h, -1.0 / h)
    M = _tridiag(n, h / 6.0, 4.0 * h / 6.0, h / 6.0)
    return -K, M


# small-batch: the generators of tests/conftest.py (random_problem), kept
# here so the benchmark does not import the test suite.

def _stable_sparse(n, seed, density=0.1):
    rs = np.random.RandomState(seed)
    M = sp.random(n, n, density=density, random_state=rs, format="csr")
    shift = float(abs(M).sum(axis=1).max()) + 1.0
    return (M - shift * sp.identity(n, format="csr")).tocsr()


def _spd_sparse(n, seed, density=0.1):
    rs = np.random.RandomState(seed)
    M = sp.random(n, n, density=density, random_state=rs, format="csr")
    S = 0.5 * (M + M.T)
    shift = float(abs(S).sum(axis=1).max()) + 1.0
    return (S + shift * sp.identity(n, format="csr")).tocsr()


def random_problem(seed, rng, n, m, p, generalized, complex_data):
    """Matrices (A, B, C, E) built as tests/conftest.py:random_problem builds them.

    The operators A and E come from ``seed``; B and C are drawn from ``rng``.
    """
    A = _stable_sparse(n, seed)
    if complex_data:
        A = (A + 0.3j * _spd_sparse(n, seed + 7)).tocsr()
    B = rng.standard_normal((n, m)) if m else None
    C = rng.standard_normal((p, n))
    if complex_data:
        if m:
            B = B + 1j * rng.standard_normal((n, m))
        C = C + 1j * rng.standard_normal((p, n))
    E = _spd_sparse(n, seed + 1) if generalized else None
    return A, B, C, E


MODES = ("r2adi", "radi", "hybrid")
SMALL_N = 300


def small_batch_mix():
    """The fixed configuration list of ``small-batch``: 57 problems.

    Real data covers every combination of E, m and p in every mode (36).
    Complex data covers m and p in every mode without E (18), and three
    problems with E, one per mode. HamiltonianShifts currently raises on
    complex data with E (a complex block reaches splu(E).solve), so those
    three count as failed until that is fixed.
    """
    mix = []
    for mode in MODES:
        for generalized in (False, True):
            for m in (0, 1, 2):
                for p in (1, 2):
                    mix.append(dict(mode=mode, generalized=generalized,
                                    complex_data=False, m=m, p=p))
        for m in (0, 1, 2):
            for p in (1, 2):
                mix.append(dict(mode=mode, generalized=False,
                                complex_data=True, m=m, p=p))
    for mode, m, p in (("r2adi", 1, 1), ("radi", 2, 2), ("hybrid", 0, 1)):
        mix.append(dict(mode=mode, generalized=True, complex_data=True, m=m, p=p))
    return mix


# Workload table. "single" workloads solve `instances` problems that share
# the operator and differ in the seeded B and C; the number of iterations
# depends on B and C, so a run reports medians over several of them.

WORKLOADS = {
    "cd2d-adaptive": dict(
        kind="single", instances=10, grid=80, convection=10.0, m=2, p=4,
        mode="r2adi", shifts="hamiltonian", parallel_width=1,
    ),
    "cd2d-cyclic-parallel": dict(
        kind="single", instances=10, grid=80, convection=10.0, m=2, p=4,
        mode="radi", shifts="cyclic", parallel_width=2,
    ),
    "fem1d-mass-hybrid": dict(
        kind="single", instances=10, fem_n=3000, m=1, p=6,
        mode="hybrid", shifts="hamiltonian", parallel_width=1,
    ),
    "small-batch": dict(kind="batch"),
}


def _seed_rng(seed, *salt):
    return np.random.default_rng([int(seed), *salt])


def build_inputs(workload, seed):
    """Return a list of problem dicts: matrices plus the solve settings."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "batch":
        out = []
        for i, cfg in enumerate(small_batch_mix()):
            A, B, C, E = random_problem(1000 + 101 * i, _seed_rng(seed, 0, i), n=SMALL_N,
                                        m=cfg["m"], p=cfg["p"],
                                        generalized=cfg["generalized"],
                                        complex_data=cfg["complex_data"])
            out.append(dict(name=f"p{i:02d}", A=A, B=B, C=C, E=E,
                            mode=cfg["mode"], shifts="hamiltonian",
                            parallel_width=1))
        return out
    if "grid" in spec:
        A, E = cd2d_operator(spec["grid"], spec["convection"]), None
    else:
        A, E = fem1d_pair(spec["fem_n"])
    shift_list = cd2d_cyclic_shifts(spec["grid"]) if spec["shifts"] == "cyclic" else None
    n = A.shape[0]
    out = []
    for i in range(spec["instances"]):
        rng = _seed_rng(seed, 1, i)
        B = rng.standard_normal((n, spec["m"]))
        C = rng.standard_normal((spec["p"], n))
        out.append(dict(name=f"i{i}", A=A, B=B, C=C, E=E, mode=spec["mode"],
                        shifts=spec["shifts"], shift_list=shift_list,
                        parallel_width=spec["parallel_width"]))
    return out
