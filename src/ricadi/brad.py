"""The running block rational Arnoldi decomposition (BRAD).

The state is kept in the normalized form where the small Lyapunov equation
associated with the decomposition is solved by the identity, so the current
approximate solution is simply X = Z Z*. Expansion adds a batch of new poles
(expand_parallel; on a real state every complex shift is its realified
conjugate pair, so the state stays real); absorption restores the
normalization.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import shifted
from .errors import ExpansionDegenerateError, NotPositiveDefiniteError
from .kernels import (
    cholesky_upper,
    hermitian_part,
    lapack_info,
    solve_lyapunov_small,
    solve_sylvester_small,
)
from .shifts import admissible_shift


@dataclass(frozen=True)
class BradState:
    """Normalized BRAD state: X = Z Z* and residual R(X) = R R*.

    Z holds the accumulated n-by-q basis, h and Hminus the small
    decomposition matrices, SB caches B*Z, R the rank-p residual factor and
    K the feedback E*Z(Z*B). Hminus is upper quasi-triangular by
    construction (the blocks' D on its diagonal, 2-by-2 blocks only for
    realified pairs), and this is load-bearing: the small Sylvester solve of
    each open-loop absorption reads it directly as trsyl's triangular
    operand. Its eigenvalues are the recorded poles. gram_cancellation
    is ||Y12* Y12||_2 / lambda_min(G) of the open-loop absorption that made
    the state, G its corrected block's Gram (0 after a closed-loop one): the
    factor by which the correction Ztil - Z Y12 amplified roundoff. The
    state holds no sizes: q is Z's column count, and n, p and m are the
    problem's, which every brad function receives. A state is never
    modified, and its Z is read-only.

    Z grows in place: an absorbed state's Z is a view of the first q columns
    of _basis, a Fortran-ordered n-by-capacity buffer that remembers its tip,
    the Z view it handed out last. Absorption appends the new columns in
    place only if the input's Z is that tip (an identity test), the dtype
    matches and the buffer has room; otherwise it copies Z into a new
    buffer. Every append moves the tip, so a second absorption from one
    state copies, as does a state made by dataclasses.replace(state, Z=...):
    no column a state can see is ever rewritten. A full buffer grows to
    max(2 q, 32) columns for the new q: at most twice the columns in use
    once q >= 16. The other arrays of an absorbed state share no memory with
    the input. solve returns a state whose Z is an owned, trimmed copy, with
    no buffer behind it. _basis is left out of == and repr.
    """

    Z: np.ndarray
    h: np.ndarray
    Hminus: np.ndarray
    SB: np.ndarray
    R: np.ndarray
    K: np.ndarray
    poles: list = field(default_factory=list)
    gram_cancellation: float = 0.0
    _basis: "_Basis | None" = field(default=None, compare=False, repr=False)

    @property
    def q(self):
        return self.Z.shape[1]


class _Basis:
    """A growth buffer for Z: its columns and its tip, the Z view it handed
    out last, which alone may append in place (BradState's docstring)."""

    __slots__ = ("data", "tip")

    def __init__(self, data, tip):
        self.data, self.tip = data, tip


# Columns of the first buffer, so that small bases do not regrow every step.
MIN_BASIS_COLUMNS = 32


def _appended(state, Zhat):
    """Return (Z, basis): the state's Z with the columns Zhat appended, as a
    read-only view of the growth buffer basis (BradState's docstring)."""
    Z, q, t = state.Z, state.q, Zhat.shape[1]
    dtype = np.result_type(Z, Zhat)
    basis = state._basis
    if not (getattr(basis, "tip", None) is Z and basis.data.dtype == dtype
            and q + t <= basis.data.shape[1]):
        data = np.empty((Z.shape[0], max(2 * (q + t), MIN_BASIS_COLUMNS)),
                        dtype=dtype, order="F")
        data[:, :q] = Z
        basis = _Basis(data, None)
    basis.data[:, q:q + t] = Zhat
    basis.tip = basis.data[:, :q + t]
    basis.tip.flags.writeable = False
    return basis.tip, basis


def trimmed(state):
    """The state with Z as an owned, trimmed, read-only copy and no buffer."""
    Z = state.Z.copy(order="F")
    Z.flags.writeable = False
    return replace(state, Z=Z, _basis=None)


@dataclass(frozen=True)
class ExpansionBlock:
    """One expansion step before absorption: basis block and bookkeeping.

    The shared absorption tail forms the block's coupling to the old basis
    from the state it absorbs into, after an open-loop body's correction.
    """

    Ztil: np.ndarray
    U1: np.ndarray
    D: np.ndarray
    kind: str  # 'simple' | 'parallel' | 'realified' (a pair shares a solve)
    poles: list
    closed_loop: bool


def init_state(problem):
    """Fresh empty state: R = C*, K = 0, no basis columns yet."""
    dtype = np.float64 if problem.is_real else np.complex128
    Z = np.zeros((problem.n, 0), dtype=dtype)
    Z.flags.writeable = False
    return BradState(
        Z=Z,
        h=np.zeros((problem.p, 0), dtype=dtype),
        Hminus=np.zeros((0, 0), dtype=dtype),
        SB=np.zeros((problem.m, 0), dtype=dtype),
        R=problem.C.conj().T.astype(dtype, copy=True),
        K=np.zeros((problem.n, problem.m), dtype=dtype),
        poles=[],
    )


def _expansion_solve(state, problem, mu, system, closed_loop):
    f = shifted.factorize(problem.A, problem.E, mu, system)
    if closed_loop and problem.m > 0:
        return shifted.smw_solve(f, state.K, problem.B, state.R)
    return shifted.solve_factored(f, state.R)


def expand_simple(state, problem, mu, system, closed_loop=False):
    """Expand by a single shift: one system solve with the residual factor."""
    return expand_parallel(state, problem, [mu], system, closed_loop)


def expand_parallel(state, problem, shifts, system, closed_loop=False):
    """Expand by l >= 1 pairwise distinct shifts.

    One system solve with the residual factor per shift, except on a real
    state (real R): there every complex shift stands for its conjugate pair
    and is realified. Both members map to the one with Im > 0, so a batch
    holding both makes one solve W for the pair; Re W and Im W are
    interleaved per column, so the new diagonal block of the small matrix
    has 2-by-2 rotation-like blocks and the pair adds only real columns.
    Several solves run concurrently, one thread each. system is the
    solve's shifted.ShiftedSystem of the problem, which forms every
    shifted matrix and which the threads share.
    """
    shifts = [admissible_shift(mu) for mu in shifts]
    if not shifts:
        raise ValueError("an expansion batch needs at least one shift")
    for i, a in enumerate(shifts):
        if a in shifts[i + 1:]:
            raise ValueError(f"parallel shifts must be pairwise distinct: {a}")
    realify = np.isrealobj(state.R)
    solves = (list(dict.fromkeys(complex(mu.real, abs(mu.imag)) for mu in shifts))
              if realify else shifts)
    if len(solves) == 1:
        results = [_expansion_solve(state, problem, solves[0], system,
                                    closed_loop)]
    else:
        # Each factor is made and dropped inside its worker. A SuperLU factor
        # dropped on another thread than the one that made it leaves its
        # memory unreusable (RSS grows by the factor's size every time), so
        # no factor may be handed out of these threads; the shared system,
        # E's factor included, is only read here and dropped by the solve.
        with ThreadPoolExecutor(max_workers=len(solves)) as pool:
            results = list(pool.map(
                lambda mu: _expansion_solve(state, problem, mu, system,
                                            closed_loop),
                solves))
    Zs, U1s, Ds, poles = zip(*(_block_part(mu, W, problem.p, realify)
                               for mu, W in zip(solves, results)))
    Ztil = Zs[0] if len(Zs) == 1 else np.hstack(Zs)
    dtype = np.result_type(Ztil, *Ds)
    # U1 and D are built in C order: their layout sets the BLAS rounding of
    # the absorption products, hence the iterates. D holds the D parts on
    # its diagonal, as sla.block_diag(*Ds) would.
    D = np.zeros((Ztil.shape[1],) * 2, dtype=dtype)
    i = 0
    for part in Ds:
        D[i:i + len(part), i:i + len(part)] = part
        i += len(part)
    return ExpansionBlock(
        Ztil=Ztil,
        U1=np.hstack(U1s).astype(dtype),
        D=D,
        kind=("realified" if realify and any(mu.imag for mu in solves)
              else "simple" if len(solves) == 1 else "parallel"),
        poles=[mu for part in poles for mu in part],
        closed_loop=closed_loop,
    )


def _block_part(mu, W, p, realify):
    """Columns, U1, D and poles that the solve W at mu adds to the block.

    With realify (a real state) a complex mu adds its realified pair.
    """
    if not (realify and mu.imag):
        return W, np.eye(p), np.diag([mu if mu.imag else mu.real] * p), [mu] * p
    Z = np.empty((W.shape[0], 2 * p))
    Z[:, 0::2], Z[:, 1::2] = W.real, W.imag
    U1 = np.zeros((p, 2 * p))
    U1[:, 0::2] = np.eye(p)
    D = np.kron(np.eye(p), np.array([[mu.real, mu.imag], [-mu.imag, mu.real]]))
    return Z, U1, D, [mu, mu.conjugate()] * p


def expand_realified(state, problem, mu, system, closed_loop=False):
    """Expand by the conjugate pair (mu, conj(mu)); realified on a real state."""
    return expand_parallel(state, problem, [mu, np.conj(mu)], system,
                           closed_loop)


def _right_divide_upper(X, G):
    """X @ inv(G) for upper triangular G: one LAPACK trtrs call, G.T W = X.T.

    G is the Fortran-ordered Cholesky factor that cholesky_upper returns,
    whose pivots passed its check. For it this is the call
    sla.solve_triangular(G.T, X.T, lower=True) makes, so the result is
    bitwise its, without its wrapper's scans for non-finite entries. A zero
    on G's diagonal raises numpy.linalg.LinAlgError, as solve_triangular did.
    """
    trtrs, = sla.get_lapack_funcs(("trtrs",), (G, X.T))
    W, info = trtrs(G, X.T, lower=False, trans=1)
    lapack_info("trtrs", info)
    return W.T


def _absorb(state, problem, block, Zt, U1t, BZt, YY=None):
    """Shared tail of both bodies: the state with a closed-loop block appended.

    (Zt, U1t) satisfies (A* - K B*) Zt - E* Zt D = R U1t for the state's K
    and R, and BZt = B* Zt. Its coupling is h* U1t + SB* BZt, its Gram G
    solves D* G + G D = BZt* BZt + U1t* U1t, and the block, BZt, coupling
    and D are divided by the Cholesky factor G22 of G. The new state is built
    from them here, the one place a state grows; the input state is kept.
    YY = Y12* Y12 of an open-loop correction sets gram_cancellation.
    """
    U2t = state.h.conj().T @ U1t + state.SB.conj().T @ BZt
    gram = solve_lyapunov_small(block.D, BZt.conj().T @ BZt + U1t.conj().T @ U1t)
    try:
        G22 = cholesky_upper(gram)
    except NotPositiveDefiniteError as exc:
        raise ExpansionDegenerateError(
            f"expansion degenerate (near-deflation or repeated pole): {exc}"
        ) from exc
    U1hat = _right_divide_upper(U1t, G22)
    U2hat = _right_divide_upper(U2t, G22)
    Dhat = _right_divide_upper(G22 @ block.D, G22)
    Zhat = _right_divide_upper(Zt, G22)
    SBhat = _right_divide_upper(BZt, G22)
    EZhat = Zhat if problem.E is None else problem.E.conj(copy=False).T @ Zhat
    # filled in place; np.block is over ten times slower at q in the hundreds
    q = state.q
    Hminus = np.zeros((q + Dhat.shape[0],) * 2,
                      dtype=np.result_type(state.Hminus, Dhat))
    Hminus[:q, :q], Hminus[:q, q:], Hminus[q:, q:] = state.Hminus, U2hat, Dhat
    Z, basis = _appended(state, Zhat)
    return BradState(
        Z=Z,
        h=np.hstack([state.h, U1hat]),
        Hminus=Hminus,
        SB=np.hstack([state.SB, SBhat]),
        R=state.R + EZhat @ U1hat.conj().T,
        K=state.K + EZhat @ SBhat.conj().T,
        poles=state.poles + block.poles,
        gram_cancellation=0.0 if YY is None else _cancellation(YY, gram),
        _basis=basis,
    )


def absorb_r2adi(state, problem, block):
    """Absorb an open-loop block (Riccati RAD iteration body): Y12 solves
    Hm* Y12 + Y12 D = SB* B* Ztil, and (Ztil - Z Y12, U1 - h Y12) is a
    closed-loop block, which the shared tail absorbs as absorb_radi would."""
    BtZt = problem.B.conj().T @ block.Ztil
    Y12 = solve_sylvester_small(state.Hminus, block.D, state.SB.conj().T @ BtZt)
    return _absorb(state, problem, block, block.Ztil - state.Z @ Y12,
                   block.U1 - state.h @ Y12, BtZt - state.SB @ Y12,
                   Y12.conj().T @ Y12)


def _cancellation(YY, gram):
    """||YY||_2 / lambda_min(gram), inf when gram is not positive definite."""
    low = np.linalg.eigvalsh(hermitian_part(gram))[0]
    big = np.linalg.eigvalsh(hermitian_part(YY))[-1]
    return float(big / low) if low > 0 else np.inf


def absorb_radi(state, problem, block):
    """Absorb a closed-loop expansion block (Lyapunov RADI iteration body)."""
    if not block.closed_loop and problem.m > 0 and np.any(state.K):
        raise ValueError("absorb_radi requires a closed-loop expansion block")
    return _absorb(state, problem, block, block.Ztil, block.U1,
                   problem.B.conj().T @ block.Ztil)

