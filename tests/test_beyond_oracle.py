"""Checks of the iterates at the benchmark's sizes, past the dense oracle.

ricadi.oracle's dense checks stop at n = 500. The RADI iterate after k
steps is built from Cayley transforms of one Hamiltonian, which commute
(Benner, Bujanovic, Kuerschner and Saak, Numer. Math. 2018; Lin and
Simoncini, NLAA 2015), so it does not depend on the order of its shifts.
Comparing a solve with a shift list against one with the list reversed
checks the whole step, the buffered basis included, with no n-by-n matrix.
"""

import numpy as np
import pytest

import ricadi as rc
from conftest import PERFBENCH, fem1d_pair

# Real shifts across the fem1d pencil's spectrum (about 10 to 1.2e7) and two
# complex ones, each absorbed as its realified pair: 10 steps, q = 72 at p = 6.
SHIFTS = [float(s) for s in np.geomspace(10.0, 1e7, 8)] + [300 + 900j,
                                                           2e4 - 1.5e4j]

# ||Z1 Z1* - Z2 Z2*||_2 / ||Z1 Z1*||_2 read 3.3e-11 and 3.4e-11 (r2adi, radi),
# and the same for R R* 7.4e-14 and 8.9e-14: the roundoff floor of ten Cayley
# steps on a pencil whose spectrum spans six decades. Scaling E* Zhat by
# 1 + 1e-6 in the absorption moved them to 1.9e-5 and 3.4e-7.
ZZ_BOUND = 1e-9
RR_BOUND = 1e-11


def gram_distance(X1, X2):
    """||X1 X1* - X2 X2*||_2 / ||X1 X1*||_2 through a QR of [X1 X2]."""
    T = np.linalg.qr(np.hstack([X1, X2]), mode="r")
    T1, T2 = T[:, :X1.shape[1]], T[:, X1.shape[1]:]
    G1 = T1 @ T1.conj().T
    return np.linalg.norm(G1 - T2 @ T2.conj().T, 2) / np.linalg.norm(G1, 2)


@pytest.mark.parametrize("mode", ["r2adi", "radi"])
def test_reversed_shifts_give_the_same_iterate_fem1d_3000(mode):
    A, E = fem1d_pair(3000)
    rng = np.random.default_rng(91)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((3000, 1)),
                          C=rng.standard_normal((6, 3000)), E=E)
    options = rc.SolverOptions(mode=mode, tol=1e-300, max_iter=len(SHIFTS))
    forward = rc.solve(prob, options, SHIFTS)
    backward = rc.solve(prob, options, SHIFTS[::-1])
    for res in (forward, backward):
        assert len(res.records) == len(SHIFTS) and res.Z.shape == (3000, 72)
        assert all(r.closed_loop == (mode == "radi") for r in res.records)
    assert gram_distance(forward.Z, backward.Z) <= ZZ_BOUND
    assert gram_distance(forward.R, backward.R) <= RR_BOUND


# Hybrid at width 2 on the same pencil: the fem1d list's complex pair, then
# 16 real shifts over the same range, 9 steps to q = 120, so the forward
# order's last step starts past hybrid's q >= 100 switch.
HYBRID_SHIFTS = [300 + 900j, 2e4 - 1.5e4j] + [float(s)
                                             for s in np.geomspace(10.0, 1e7, 16)]


def test_permuted_shifts_give_the_same_iterate_fem1d_3000_hybrid():
    # ZZ* read 9.5e-11 and RR* 2.4e-12, inside the bounds of the ten-shift
    # test: both orders switch to the closed-loop body at their last step.
    A, E = fem1d_pair(3000)
    rng = np.random.default_rng(91)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((3000, 1)),
                          C=rng.standard_normal((6, 3000)), E=E)
    order = rng.permutation(len(HYBRID_SHIFTS))
    options = rc.SolverOptions(mode="hybrid", tol=1e-300,
                               max_iter=len(HYBRID_SHIFTS), parallel_width=2)
    forward = rc.solve(prob, options, HYBRID_SHIFTS)
    permuted = rc.solve(prob, options, [HYBRID_SHIFTS[i] for i in order])
    for res in (forward, permuted):
        assert len(res.records) == len(HYBRID_SHIFTS) // 2
        assert res.Z.shape == (3000, 120)
        assert [r.closed_loop for r in res.records] == [False] * 8 + [True]
        assert not any(r.redone for r in res.records)
    assert gram_distance(forward.Z, permuted.Z) <= ZZ_BOUND
    assert gram_distance(forward.R, permuted.R) <= RR_BOUND


# The benchmark's cd2d operator (n = 6400): 16 real shifts across its
# spectrum (about 20 to 5.2e4) and two complex ones, each absorbed as its
# realified pair: q = 120 at p = 6, so Z's buffer regrows twice on the way
# and hybrid's last step at width 2 starts past its q >= 100 switch.
CD2D_SHIFTS = [300 + 900j, 2000 - 1500j] + [float(s)
                                           for s in np.geomspace(20.0, 5e4, 16)]

# ZZ* read 1.2e-14 (r2adi, width 1, reversed), 5.8e-14 and 5.1e-14 (radi and
# hybrid, width 2, permuted), and RR* 6.0e-14, 1.0e-12 and 1.0e-12: the
# roundoff floor of 18 Cayley steps on an operator whose spectrum spans 3.5
# decades, where the fem1d pencil's six decades leave 3e-11. Each bound sits
# at least 10 times above its largest reading.
CD2D_ZZ_BOUND = 1e-12
CD2D_RR_BOUND = 1e-11


@pytest.mark.parametrize("mode, width", [("r2adi", 1), ("radi", 2),
                                         ("hybrid", 2)])
def test_permuted_shifts_give_the_same_iterate_cd2d_6400(monkeypatch, mode,
                                                         width):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import cd2d_operator

    A = cd2d_operator(80, 10.0)
    rng = np.random.default_rng(92)
    prob = rc.ProblemSpec(A=A, B=rng.standard_normal((6400, 2)),
                          C=rng.standard_normal((6, 6400)))
    order = (np.arange(len(CD2D_SHIFTS))[::-1] if width == 1
             else rng.permutation(len(CD2D_SHIFTS)))
    options = rc.SolverOptions(mode=mode, tol=1e-300, max_iter=len(CD2D_SHIFTS),
                               parallel_width=width)
    forward = rc.solve(prob, options, CD2D_SHIFTS)
    permuted = rc.solve(prob, options, [CD2D_SHIFTS[i] for i in order])
    for res in (forward, permuted):
        assert len(res.records) == len(CD2D_SHIFTS) // width
        assert res.Z.shape == (6400, 120)
        assert not any(r.redone for r in res.records)
    if mode == "hybrid":
        assert [r.closed_loop for r in forward.records] == [False] * 8 + [True]
    assert gram_distance(forward.Z, permuted.Z) <= CD2D_ZZ_BOUND
    assert gram_distance(forward.R, permuted.R) <= CD2D_RR_BOUND
