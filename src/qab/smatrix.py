"""Bound-state S-matrices as intertwiner null spaces, and the Yang-Baxter check.

S is the endomorphism of V1 (x) V2 satisfying S Delta(J) = Delta^op(J) S for
every Chevalley generator including the affine ones (which are what make the
null space one-dimensional).  The boundary K-matrix is the same kind of null
space on one leg.  Each side builds its system in one place
(``intertwiner_system``, ``kmatrix.boundary_system``), and both are fixed by
``unique_intertwiner``: one ``weight_nullspace`` solve, a null dimension of
exactly 1, and the normalization at the [0, 0] entry.  The solver imposes the
Cartan constraints structurally by supporting the unknown on entries that
join states of equal (H1, H3) weight and keeps only the equation rows this
support reaches, as sparse entries.  It never forms the system densely and
runs no SVD: block inverse iteration on the Gram matrix finds the smallest
singular vectors, which are then refined and measured on the system itself.
"""

from __future__ import annotations

import numpy as np

from .coalgebra import Leg, coproduct, opposite_coproduct, swap_legs
from .kinematics import Kinematics, ModelParams
from .numerics import rel_residual
from .representation import RepSpace, build_basis

DEFAULT_GENERATORS = tuple(
    f"{kind}{i}" for kind in ("E", "F") for i in (1, 2, 3, 4)
)
#: The ablation set: without the affine E4, F4 the null space of a pair of
#: bound states (both M >= 2) is no longer one-dimensional.
SANS_AFFINE = tuple(g for g in DEFAULT_GENERATORS if g not in ("E4", "F4"))

#: Singular values below this multiple of max(shape) * eps * sigma_max count
#: as zero when the null-space dimension is read off.
_NULL_RTOL = 1e3
#: Shift s of the Gram matrix G before inversion, relative to ||G||_1: far
#: below sigma_2^2, so the null space converges in one step, yet far above
#: eps, since the inverse errs by eps ||G|| / s next to the null space.
_SHIFT = 1e-12


class IntertwinerError(RuntimeError):
    """Null space empty or degenerate."""


def leg_weights(space: RepSpace) -> list:
    """(H1, H3) weight of every basis state of one leg."""
    return [(l - k, n - m) for (m, n, k, l) in space.states]


def _scatter(index, values, size):
    """Sums of the complex ``values`` binned by ``index``."""
    return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)


def weight_nullspace(pairs, weights):
    """Null space of X -> X A - B X over every (A, B) in ``pairs``.

    X is supported on the entries X[i, j] with weights[i] == weights[j].  The
    equation (X A - B X)[a, b] = 0 has the coefficient
    delta_ai A[j, b] - delta_bj B[a, i] on the unknown X[i, j], so each
    unknown reaches only the rows (i, b) with A[j, b] != 0 and (a, j) with
    B[a, i] != 0; rows reached by no unknown are identically zero and are
    never built.  R stays a list of (row, unknown, value) entries, and its
    Gram matrix G = R^H R is summed from the entry pairs that share a row.
    Rayleigh-Ritz on a Krylov space of G gives sigma_max, and on a block
    Krylov space of (G + s I)^-1 the k smallest right singular vectors, k
    doubling while all of them are null.  The smallest gets one corrected
    semi-normal equations step on R (Bjorck 1996).  Each sigma is ||R v||, so
    null_dim = #{sigma < 1e3 max(m, n) eps sigma_max} as from a full SVD.
    Returns (X, [sigma_max, sigma_k, ..., sigma_1], null_dim, (m, n)), X
    being the right singular vector of sigma_1.
    """
    w = np.asarray(weights)
    dim = len(w)
    ui, uj = np.nonzero((w[:, None, :] == w[None, :, :]).all(axis=-1))
    rows, cols, vals = [], [], []
    for p, (A, B) in enumerate(pairs):
        # unknown u = X[ui, uj] times A[uj, b] lands on row (ui, b)
        u, b = np.nonzero(A[uj])
        rows.append((p * dim + ui[u]) * dim + b)
        cols.append(u)
        vals.append(A[uj[u], b])
        # and times -B[a, ui] on row (a, uj)
        u, a = np.nonzero(B[:, ui].T)
        rows.append((p * dim + a) * dim + uj[u])
        cols.append(u)
        vals.append(-B[a, ui[u]])
    row_ids, rows = np.unique(np.concatenate(rows), return_inverse=True)
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], np.concatenate(cols)[order], np.concatenate(vals)[order]
    m, n = len(row_ids), len(ui)
    starts = np.searchsorted(rows, np.arange(m))
    R = lambda V: np.add.reduceat(vals[:, None] * V[cols], starts)
    # entry e pairs with every entry of its row, which starts at first[e]
    count, first = np.bincount(rows)[rows], starts[rows]
    e1 = np.repeat(np.arange(len(rows)), count)
    e2 = np.arange(len(e1)) - np.repeat(np.cumsum(count) - count - first, count)
    G = _scatter(cols[e1] * n + cols[e2], vals[e1].conj() * vals[e2], n * n).reshape(n, n)
    rng = np.random.default_rng(0)
    K = [rng.standard_normal(n) + 0j]
    for _ in range(min(n, 24)):
        K.append(G @ (K[-1] / np.linalg.norm(K[-1])))
    Q = np.linalg.qr(np.column_stack(K))[0]
    smax = np.sqrt(np.linalg.eigvalsh(Q.conj().T @ G @ Q)[-1])
    thresh = max(m, n) * np.finfo(float).eps * smax * _NULL_RTOL
    G.flat[:: n + 1] += _SHIFT * np.abs(G).sum(axis=0).max()  # G + s I, in place
    Finv = np.linalg.inv(G)
    k = 3
    while True:
        k = min(k, n)
        V = np.linalg.qr(rng.standard_normal((n, k, 2)) @ [1, 1j])[0]
        for _ in range(8):
            V = np.linalg.qr(np.column_stack([V, Finv @ V[:, -k:]]))[0]
        W = R(V)
        V = V @ np.linalg.eigh(W.conj().T @ W)[1][:, :k]
        x = V[:, 0]
        d = Finv @ _scatter(cols, vals.conj() * R(x[:, None])[rows, 0], n)
        x = x - (d - x * (x.conj() @ d))
        V[:, 0] = x / np.linalg.norm(x)
        sv = np.sort(np.linalg.norm(R(V), axis=0))
        null_dim = int(np.sum(sv < thresh))
        if null_dim < k or k == n:
            break
        k *= 2
    X = np.zeros((dim, dim), dtype=complex)
    X[ui, uj] = V[:, 0]
    return X, np.concatenate([[smax], sv[::-1]]), null_dim, (m, n)


def intertwiner_system(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                       generators=DEFAULT_GENERATORS):
    """(pairs, weights) of S Delta(J) = Delta^op(J) S over ``generators``, as
    weight_nullspace, unique_intertwiner and pair_residuals take them.

    With SANS_AFFINE the null space exceeds one dimension (the ablation).
    """
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    pairs = [
        (coproduct(gen, leg1, leg2).matrix, opposite_coproduct(gen, leg1, leg2).matrix)
        for gen in generators
    ]
    w1, w2 = leg_weights(leg1.space), leg_weights(leg2.space)
    return pairs, [(a1 + b1, a2 + b2) for (a1, a2) in w1 for (b1, b2) in w2]


def unique_intertwiner(pairs, weights):
    """The one intertwiner of ``pairs`` (see weight_nullspace), scaled so its
    [0, 0] element is 1; returns (X, singular values, system shape).

    Basis index 0 is the state |0,0,0,M> of a leg, and |0,0,0,M1> (x)
    |0,0,0,M2> of a product.  Raises IntertwinerError unless the null space
    is one-dimensional and that element is nonzero.
    """
    X, sv, null_dim, shape = weight_nullspace(pairs, weights)
    if null_dim != 1:
        raise IntertwinerError(f"null-space dimension {null_dim}, expected 1")
    if abs(X[0, 0]) < 1e-12:
        raise IntertwinerError("[0, 0] matrix element vanishes; resample")
    return X / X[0, 0], sv, shape


def pair_residuals(X: np.ndarray, pairs) -> list:
    """||X A - B X|| / max(1, ||X||) for every (A, B) in ``pairs``."""
    norm = max(1.0, float(np.linalg.norm(X)))
    return [float(np.linalg.norm(X @ A - B @ X)) / norm for A, B in pairs]


def solve_intertwiner(kin1: Kinematics, kin2: Kinematics, params: ModelParams) -> np.ndarray:
    """The unique intertwiner S, normalized so the highest joint state
    |0,0,0,M1> (x) |0,0,0,M2> maps to itself with coefficient 1."""
    return unique_intertwiner(*intertwiner_system(kin1, kin2, params))[0]


def intertwining_residual(S: np.ndarray, kin1: Kinematics, kin2: Kinematics,
                          params: ModelParams) -> dict:
    """Per-generator residual ||S Delta(J) - Delta^op(J) S|| (relative)."""
    gens = list(DEFAULT_GENERATORS) + [f"K{i}" for i in (1, 2, 3, 4)]
    pairs = intertwiner_system(kin1, kin2, params, gens)[0]
    return dict(zip(gens, pair_residuals(S, pairs)))


def ybe_residual(
    kin1: Kinematics, kin2: Kinematics, kin3: Kinematics, params: ModelParams
) -> float:
    """Relative residual of S23 S13 S12 = S12 S13 S23 on V1 (x) V2 (x) V3.

    S is even, so S12 and S23 embed by a plain Kronecker product; S13 is
    embedded on V1 (x) V3 (x) V2 and carried to V1 (x) V2 (x) V3 by the
    graded swap of its last two legs.
    """
    s1, s2, s3 = (build_basis(k.M) for k in (kin1, kin2, kin3))
    S12 = np.kron(solve_intertwiner(kin1, kin2, params), np.eye(s3.dim))
    S13 = np.kron(solve_intertwiner(kin1, kin3, params), np.eye(s2.dim))
    S13 = swap_legs(S13, [s1, s3, s2], 1)
    S23 = np.kron(np.eye(s1.dim), solve_intertwiner(kin2, kin3, params))
    return rel_residual(S23 @ S13 @ S12, S12 @ S13 @ S23)
