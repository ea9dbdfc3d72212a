"""Bound-state S-matrices as intertwiner null spaces, and the Yang-Baxter check.

S is solved in its braided form Ř: V1 (x) V2 -> V2 (x) V1, with
Ř Delta_12(J) = Delta_21(J) Ř for every Chevalley generator including the
affine ones (which are what make the null space one-dimensional); Delta_21(J)
is coproduct(J, leg2, leg1).  S = P Ř for the graded flip P of V2 (x) V1
onto V1 (x) V2, but no P is built: each factor of Ř in the Yang-Baxter and
reflection equations acts on two adjacent legs.  The boundary K-matrix is
the same kind of null space on one leg.  Both come out of one dense QR +
SVD solver (``_null_space``) for an unknown on a given set of entries.
``unique_intertwiner`` is the one uniqueness rule: a null dimension of
exactly 1, and the normalization at the [0, 0] entry.

K (``weight_nullspace``) is supported on the entries that join states of
equal (H1, H3) weight.  Ř also intertwines the bosonic U_q(su(2)) +
U_q(su(2)) of E1, F1, E3, F3, whose coproducts carry no kinematics.  With
V_12 and V_21 the bases of V1 (x) V2 and V2 (x) V1 adapted to them, Schur's
lemma gives Ř = V_21 C V_12^-1, C the sum of c_lambda (x) I over the
isotypic components lambda.  So ``commutant_nullspace`` solves for the
mult(lambda)^2 entries of each c_lambda from the fermionic pairs
(V_12^-1 Delta_12(J) V_12, V_21^-1 Delta_21(J) V_21) alone.  The bases depend
on (M1, M2, q) only and are cached (``adapted_bases``).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .coalgebra import Leg, coproduct
from .kinematics import Kinematics, ModelParams
from .numerics import qint, rel_residual, sqrt
from .representation import BOSONIC_GENERATORS, RepSpace, build_basis

DEFAULT_GENERATORS = tuple(
    f"{kind}{i}" for kind in ("E", "F") for i in (1, 2, 3, 4)
)
#: The ablation set: without the affine E4, F4 the null space of a pair of
#: bound states (both M >= 2) is no longer one-dimensional.
SANS_AFFINE = tuple(g for g in DEFAULT_GENERATORS if g not in ("E4", "F4"))
#: The raising and lowering generators of the bosonic U_q(su(2)) pairs.
BOSONIC = tuple(g for g in BOSONIC_GENERATORS if not g.startswith("K"))

#: Singular values below this multiple of max(shape) * eps * sigma_max count
#: as zero when the null-space dimension is read off.
_NULL_RTOL = 1e3


class IntertwinerError(RuntimeError):
    """Null space empty or degenerate."""


def leg_weights(space: RepSpace) -> list:
    """(H1, H3) weight of every basis state of one leg."""
    return [(l - k, n - m) for (m, n, k, l) in space.states]


def product_weights(space1: RepSpace, space2: RepSpace) -> list:
    """(H1, H3) weight of every basis state of space1 (x) space2."""
    w2 = leg_weights(space2)
    return [(a1 + b1, a3 + b3) for (a1, a3) in leg_weights(space1) for (b1, b3) in w2]


def _null_space(pairs, ui, uj, unknown):
    """Null space of X -> X A - B X over every (A, B) in ``pairs``, for X
    with X[ui, uj] = x[unknown] and zero elsewhere.

    The equation (X A - B X)[a, b] = 0 has the coefficient
    delta_ai A[j, b] - delta_bj B[a, i] on the entry X[i, j], so support entry
    (i, j) reaches only the rows (i, b) with A[j, b] != 0 and (a, j) with
    B[a, i] != 0; rows reached by no entry are identically zero and are never
    built.  Each pair's block of rows is assembled dense and reduced to its
    triangular QR factor, the stacked factors once more, so that no more
    than one pair's rows are held at a time, and an SVD of that gives the
    singular values of the whole system R with its right singular vectors.
    null_dim = #{sigma < 1e3 max(m, n) eps sigma_max}.  Returns
    (X, sv, null_dim, (m, n)): X holds the right singular vector of the
    smallest sigma, and sv all n singular values, descending, padded with
    zeros when R has fewer rows than unknowns.
    """
    dim, n = len(pairs[0][0]), int(unknown.max()) + 1
    factors, m = [], 0
    for A, B in pairs:
        e, b = np.nonzero(A[uj])  # entry e times A[uj, b] lands on row (ui, b)
        f, a = np.nonzero(B[:, ui].T)  # and entry f times -B[a, ui] on (a, uj)
        rows = np.unique(np.concatenate([ui[e] * dim + b, a * dim + uj[f]]), return_inverse=True)[1]
        block = np.zeros((rows.max() + 1, n), dtype=complex)
        np.add.at(block, (rows, unknown[np.concatenate([e, f])]),
                  np.concatenate([A[uj[e], b], -B[a, ui[f]]]))
        m += len(block)
        # only a block taller than wide shrinks under QR
        factors.append(np.linalg.qr(block, mode="r") if len(block) > n else block)
    _, sv, vh = np.linalg.svd(np.linalg.qr(np.vstack(factors), mode="r"))
    sv = np.concatenate([sv, np.zeros(n - len(sv))])
    null_dim = int(np.sum(sv < max(m, n) * np.finfo(float).eps * sv[0] * _NULL_RTOL))
    X = np.zeros((dim, dim), dtype=complex)
    X[ui, uj] = vh[-1].conj()[unknown]
    return X, sv, null_dim, (m, n)


def weight_nullspace(pairs, weights):
    """Null space of X -> X A - B X over every (A, B) in ``pairs``, X being
    supported on the entries X[i, j] with weights[i] == weights[j].

    Returns (X, sv, null_dim, (rows, unknowns)) as _null_space does.
    """
    w = np.asarray(weights)
    ui, uj = np.nonzero((w[:, None, :] == w[None, :, :]).all(axis=-1))
    return _null_space(pairs, ui, uj, np.arange(len(ui)))


class AdaptedBases(NamedTuple):
    """The basis V of V1 (x) V2 adapted to the bosonic Delta_12.

    Its columns are ordered by (lambda, copy, position), as are those of
    V2 (x) V1, so Ř = V_21 C V_12^-1 for a C on the shared ``support``
    (ui, uj, unknown), as _null_space takes it.
    """

    V: np.ndarray
    V_inv: np.ndarray
    support: tuple
    cond_V: float


def _adapted_basis(ops, weights, q):
    """Basis adapted to the bosonic operators ``ops`` (E1, F1, E3, F3 on a
    space with the (H1, H3) ``weights``): (basis, inverse, condition number,
    support of a map that commutes with them, as _null_space takes it).

    E1 raises H1 by 2 and E3 lowers H3 by 2, so the highest weights are
    lambda = (l1, l3) = (H1, -H3) with l1, l3 >= 0, taken in ascending order.
    With n the weight-space dimensions, lambda occurs
    n(l1, l3) - n(l1 + 2, l3) - n(l1, l3 + 2) + n(l1 + 2, l3 + 2) times.  An
    orthonormal basis of the null space of E1 and E3 on its weight space
    gives the highest-weight vectors v, and each is lowered to the columns
    F1^a F3^b v / N, b = 0..l3 and a = 0..l1, with
    N = prod_{t <= a} ([t][l1 - t + 1])^1/2 prod_{t <= b} ([t][l3 - t + 1])^1/2.
    N depends on lambda and (a, b) alone, so every copy of lambda carries the
    same matrices of E1, F1, E3, F3, and a map that commutes with them is
    c_lambda (x) I on the copies: the support.  The basis maps each weight
    space onto itself, so it is inverted block by block.
    """
    E1, F1, E3, F3 = (ops[g] for g in BOSONIC)
    dim = len(weights)
    states = {}
    for i, (h1, h3) in enumerate(weights):
        states.setdefault((h1, -h3), []).append(i)
    count = lambda w: len(states.get(w, ()))
    V = np.zeros((dim, dim), dtype=complex)
    columns = {}  # weight -> the columns of V in its weight space
    ui, uj, unknown = [], [], []
    col = n = 0
    for l1, l3 in sorted(states):
        mult = (count((l1, l3)) - count((l1 + 2, l3))
                - count((l1, l3 + 2)) + count((l1 + 2, l3 + 2)))
        if l1 < 0 or l3 < 0 or mult == 0:
            continue
        here = states[l1, l3]
        above = states.get((l1 + 2, l3), []) + states.get((l1, l3 + 2), [])
        if above:
            raising = np.vstack([E1[np.ix_(above, here)], E3[np.ix_(above, here)]])
            tops = np.linalg.svd(raising)[2][len(here) - mult:].conj()
        else:
            tops = np.eye(mult)
        # copy alpha at position p = b (l1 + 1) + a is column col + alpha P + p
        P = (l1 + 1) * (l3 + 1)
        beta, alpha, p = np.indices((mult, mult, P)).reshape(3, -1)
        ui.append(col + beta * P + p)
        uj.append(col + alpha * P + p)
        unknown.append(n + beta * mult + alpha)
        n += mult * mult
        for top in tops:
            chain = np.zeros(dim, dtype=complex)
            chain[here] = top
            for b in range(l3 + 1):
                if b:
                    chain = F3 @ chain / sqrt(qint(b, q) * qint(l3 - b + 1, q))
                v = chain
                for a in range(l1 + 1):
                    if a:
                        v = F1 @ v / sqrt(qint(a, q) * qint(l1 - a + 1, q))
                    V[:, col] = v
                    columns.setdefault((l1 - 2 * a, l3 - 2 * b), []).append(col)
                    col += 1
    V_inv = np.zeros_like(V)
    sv = []
    for w, rows in states.items():
        block = V[np.ix_(rows, columns[w])]
        sv.append(np.linalg.svd(block, compute_uv=False))
        V_inv[np.ix_(columns[w], rows)] = np.linalg.inv(block)
    sv = np.concatenate(sv)
    support = tuple(np.concatenate(x) for x in (ui, uj, unknown))
    return V, V_inv, float(sv.max() / sv.min()), support


@functools.lru_cache(maxsize=8)
def adapted_bases(M1: int, M2: int, q) -> AdaptedBases:
    """The AdaptedBases of V_M1 (x) V_M2 at q, built once per (M1, M2, q).

    Delta(E1), Delta(F1), Delta(E3), Delta(F3) carry no kinematics: the U
    power of their coproducts is 0, and K1, K3 contain no C.  So they are
    built from kinematics-free legs (Leg.bosonic).  The arrays are
    read-only, since every caller shares them.
    """
    leg1, leg2 = Leg.bosonic(M1, q), Leg.bosonic(M2, q)
    V, V_inv, cond_V, support = _adapted_basis(
        {g: coproduct(g, leg1, leg2).matrix for g in BOSONIC},
        product_weights(leg1.space, leg2.space), q)
    for a in (V, V_inv, *support):
        a.flags.writeable = False
    return AdaptedBases(V, V_inv, support, cond_V)


def intertwiner_system(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                       generators=DEFAULT_GENERATORS):
    """The pairs (Delta_12(J), Delta_21(J)) of Ř Delta_12(J) = Delta_21(J) Ř
    over ``generators``, as _null_space and pair_residuals take them."""
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    return [
        (coproduct(gen, leg1, leg2).matrix, coproduct(gen, leg2, leg1).matrix)
        for gen in generators
    ]


def commutant_nullspace(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                        generators=DEFAULT_GENERATORS):
    """Null space of Ř Delta_12(J) = Delta_21(J) Ř over ``generators``, which
    must include E1, F1, E3, F3, solved in the bosonic commutant
    Ř = V_21 C V_12^-1: only the other generators give equations.  Returns
    (Ř, sv, null_dim, (rows, unknowns)) as weight_nullspace does.  With
    SANS_AFFINE the null space exceeds one dimension (the ablation).
    """
    if not set(BOSONIC) <= set(generators):
        raise ValueError(f"the commutant needs {', '.join(BOSONIC)} among the generators")
    V12 = adapted_bases(kin1.M, kin2.M, params.q)
    V21 = adapted_bases(kin2.M, kin1.M, params.q)
    fermionic = [g for g in generators if g not in BOSONIC]
    pairs = [
        (V12.V_inv @ A @ V12.V, V21.V_inv @ B @ V21.V)
        for A, B in intertwiner_system(kin1, kin2, params, fermionic)
    ]
    C, sv, null_dim, shape = _null_space(pairs, *V12.support)
    return V21.V @ C @ V12.V_inv, sv, null_dim, shape


def unique_intertwiner(solution):
    """The one intertwiner of a null-space ``solution`` (X, sv, null_dim,
    shape), as weight_nullspace and commutant_nullspace return it, scaled so
    its [0, 0] element is 1; returns (X, sv, shape).

    Basis index 0 is the state |0,0,0,M> of a leg, and |0,0,0,Ma> (x)
    |0,0,0,Mb> of a product Va (x) Vb.  Raises IntertwinerError unless the
    null space is one-dimensional and that element is nonzero.
    """
    X, sv, null_dim, shape = solution
    if null_dim != 1:
        raise IntertwinerError(f"null-space dimension {null_dim}, expected 1")
    if abs(X[0, 0]) < 1e-12:
        raise IntertwinerError("[0, 0] matrix element vanishes; resample")
    X = X / X[0, 0]
    X[0, 0] = 1  # complex x / x can round to 1 - 2^-53
    return X, sv, shape


def pair_residuals(X: np.ndarray, pairs) -> list:
    """||X A - B X|| / max(1, ||X||) for every (A, B) in ``pairs``."""
    norm = max(1.0, float(np.linalg.norm(X)))
    return [float(np.linalg.norm(X @ A - B @ X)) / norm for A, B in pairs]


def solve_intertwiner(kin1: Kinematics, kin2: Kinematics, params: ModelParams) -> np.ndarray:
    """The unique braided intertwiner Ř: V1 (x) V2 -> V2 (x) V1, normalized
    so the highest joint state |0,0,0,M1> (x) |0,0,0,M2> maps to
    |0,0,0,M2> (x) |0,0,0,M1> with coefficient 1."""
    return unique_intertwiner(commutant_nullspace(kin1, kin2, params))[0]


def intertwining_residual(R: np.ndarray, kin1: Kinematics, kin2: Kinematics,
                          params: ModelParams) -> dict:
    """Per-generator relative residual ||R Delta_12(J) - Delta_21(J) R|| of R = Ř."""
    gens = list(DEFAULT_GENERATORS) + [f"K{i}" for i in (1, 2, 3, 4)]
    return dict(zip(gens, pair_residuals(R, intertwiner_system(kin1, kin2, params, gens))))


def _on_left(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(R (x) 1) T: R acts on the leading legs of the rows of T."""
    return (R @ T.reshape(R.shape[1], -1)).reshape(-1, T.shape[1])


def _on_right(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(1 (x) R) T: R acts on the trailing legs of the rows of T."""
    return (R @ T.reshape(-1, R.shape[1], T.shape[1])).reshape(-1, T.shape[1])


def ybe_residual(
    kin1: Kinematics, kin2: Kinematics, kin3: Kinematics, params: ModelParams
) -> float:
    """Relative residual of (Ř23 (x) 1)(1 (x) Ř13)(Ř12 (x) 1) =
    (1 (x) Ř12)(Ř13 (x) 1)(1 (x) Ř23), from V1 (x) V2 (x) V3 to
    V3 (x) V2 (x) V1.  Each factor acts on its two legs of the identity,
    by reshape, so no factor is embedded in the three-leg space.
    """
    R12, R13, R23 = (solve_intertwiner(a, b, params)
                     for a, b in ((kin1, kin2), (kin1, kin3), (kin2, kin3)))
    dim = len(R12) * build_basis(kin3.M).dim
    # a fresh identity per side, freed by its first factor: at most three
    # dim x dim arrays are alive at once
    lhs = _on_left(R23, _on_right(R13, _on_left(R12, np.eye(dim))))
    rhs = _on_right(R12, _on_left(R13, _on_right(R23, np.eye(dim))))
    return rel_residual(lhs, rhs)
