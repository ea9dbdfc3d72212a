"""Bound-state S-matrices as intertwiner null spaces, and the Yang-Baxter check.

S is solved in its braided form Ř: V1 (x) V2 -> V2 (x) V1, with
Ř Delta_12(J) = Delta_21(J) Ř for every Chevalley generator including the
affine ones (which are what make the null space one-dimensional); Delta_21(J)
is coproduct(J, leg2, leg1).  S = P Ř for the graded flip P of V2 (x) V1
onto V1 (x) V2, but no P is built: each factor of Ř in the Yang-Baxter and
reflection equations acts on two adjacent legs.  The boundary K-matrix is
the same kind of null space on one leg.  Both come out of one dense QR +
SVD solve (``layout_nullspace``) for an unknown supported on the entries
that join indices of equal weight, on a layout of the system's rows and
unknowns (``nullspace_layout``): K's is read off its matrices per call
(``weight_nullspace``), S's is cached.  ``unique_intertwiner`` is the one
uniqueness rule: a spectral gap sigma_1 / sigma_2 <= NULL_GAP, and the
normalization at the [0, 0] entry.

K's weights are the (H1, H3) weights of its states.  Ř also intertwines
the bosonic U_q(su(2)) + U_q(su(2)) of E1, F1, E3, F3, whose coproducts
carry no kinematics.  With V_12 and V_21 the bases of V1 (x) V2 and
V2 (x) V1 adapted to them, Schur's lemma gives Ř = V_21 C V_12^-1, C the
sum of c_lambda (x) I over the isotypic components lambda.  So
``commutant_nullspace`` solves for the mult(lambda)^2 entries of each
c_lambda from the fermionic generators alone.
By the q-Wigner-Eckart theorem each of them acts between isotypic blocks as
a fixed q-Clebsch-Gordan pattern on the positions times a small reduced
matrix, so one position pair per block gives all of that block's equations:
the system is C_red A_red - B_red C_red = 0 on the N x N reduced matrices,
N = sum mult(lambda), solved with lambda as the weight of each reduced
index.  The bases and the position pairs depend on (M1, M2, q) only and are
cached (``adapted_bases``).

Only the supercharges carry kinematics, and linearly.  For i = 2, 4,
E_i = a P_a + b P_b and F_i = c Q_c + d Q_d with the kinematics-free steps
of representation.supercharge_steps and the labels (a, b, c, d) of E_i, F_i
(bulk at i = 2, affine at i = 4), and K2 = V^-1 q^h, K4 = V q^h with
h = (k - l + m - n) / 2.  So Delta_12(E_i) is the sum of four Koszul-signed
pieces P_a (x) 1, P_b (x) 1, s q^-h (x) P_a and s q^-h (x) P_b, s the parity
sign of leg 1, with the coefficients a1, b1, (U1 V1)^d a2 and (U1 V1)^d b2,
d = 1 at i = 2 and -1 at i = 4; Delta_12(F_i) is that of Q_c (x) q^h,
Q_d (x) q^h, s (x) Q_c and s (x) Q_d with V2^-d c1, V2^-d d1, U1^-d c2 and
U1^-d d2.  The reduced matrices of the eight pieces of a leg order depend
on (M1, M2, q) alone, E2 and E4 share theirs, as do F2 and F4, and only
their entries at the position pairs are kept (reduced_pieces).  The rows
and unknowns of the system are cached per generator set as well, from
the entries where a piece is nonzero (commutant_layout).  A solve then
contracts the pieces with four scalars per supercharge and leg order,
fills the cached layout and factors it: it builds no generator matrix and
no coproduct of its points.

Every coproduct enters as its one or two Kronecker terms (a, b) of one-leg
matrices (coalgebra.coproduct), and each term acts on a matrix whose rows
are the two legs by reshape (_times): the basis build, the reduced pieces
and the residuals of Ř never form a two-leg generator.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .coalgebra import Leg, coproduct
from .kinematics import Kinematics, ModelParams, affine_labels, bulk_labels
from .numerics import qint, rel_residual, sqrt
from .representation import (
    BOSONIC_GENERATORS,
    SHIFTS,
    RepSpace,
    build_basis,
    supercharge_steps,
)

DEFAULT_GENERATORS = tuple(SHIFTS)
#: The ablation set: without the affine E4, F4 the null space of a pair of
#: bound states (both M >= 2) is no longer one-dimensional.
SANS_AFFINE = tuple(g for g in DEFAULT_GENERATORS if g not in ("E4", "F4"))
#: The raising and lowering generators of the bosonic U_q(su(2)) pairs.
BOSONIC = tuple(g for g in BOSONIC_GENERATORS if not g.startswith("K"))
#: The supercharges, the generators that give the commutant's equations.
FERMIONIC = tuple(g for g in DEFAULT_GENERATORS if g not in BOSONIC)

#: The largest sigma_1 / sigma_2 of a unique intertwiner's system: above it
#: the null vector is not separated from the next singular vector.
NULL_GAP = 1e-6


class VerificationError(RuntimeError):
    """A verification cannot complete: no unique S or K, or two forms disagree."""


def product_weights(space1: RepSpace, space2: RepSpace) -> list:
    """(H1, H3) weight of every basis state of space1 (x) space2, the sum of
    its legs' weights, as [H1, H3] lists."""
    return (space1.weights[:, None] + space2.weights[None, :]).reshape(-1, 2).tolist()


def _on_left(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(R (x) 1) T: R acts on the leading legs of the rows of T."""
    return (R @ T.reshape(R.shape[1], -1)).reshape(-1, T.shape[1])


def _on_right(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(1 (x) R) T: R acts on the trailing legs of the rows of T."""
    return (R @ T.reshape(-1, R.shape[1], T.shape[1])).reshape(-1, T.shape[1])


def _times(op, T: np.ndarray) -> np.ndarray:
    """op T, for ``op`` a one-leg matrix or the terms (a, b) of a coproduct,
    op = sum of kron(a, b) over them.  Each factor acts on its own leg of the
    rows of T (_on_left, _on_right), so no two-leg operator is formed."""
    if isinstance(op, np.ndarray):
        return op @ T
    return sum(_on_left(a, _on_right(b, T)) for a, b in op)


def _transpose(op):
    """op^T, for ``op`` as _times takes it: kron(a, b)^T = kron(a^T, b^T)."""
    return op.T if isinstance(op, np.ndarray) else [(a.T, b.T) for a, b in op]


def _block(terms, rows, cols) -> np.ndarray:
    """op[np.ix_(rows, cols)] of op = sum of kron(a, b) over ``terms``, entry
    by entry: the products and the sum of the dense kron, and no more."""
    d2 = len(terms[0][1])
    (r1, r2), (c1, c2) = np.divmod(np.asarray(rows)[:, None], d2), np.divmod(cols, d2)
    return sum(a[r1, c1] * b[r2, c2] for a, b in terms)


class NullspaceLayout(NamedTuple):
    """Where the system of X -> X A - B X over a stack of pairs puts each
    coefficient (nullspace_layout): the unknowns X[ui, uj], and the
    row[t], col[t] of the t-th coefficient, A's at A[a_at] then B's at
    B[b_at], each an index tuple (pair, row, column) into the stacks."""

    ui: np.ndarray
    uj: np.ndarray
    row: np.ndarray
    col: np.ndarray
    a_at: tuple
    b_at: tuple
    shape: tuple


def nullspace_layout(a_mask, b_mask, weights) -> NullspaceLayout:
    """The layout of the null space of X -> X A - B X over every pair
    (A[p], B[p]) that is nonzero at most where the stacks ``a_mask`` and
    ``b_mask`` are, X being supported on the entries X[i, j] with
    weights[i] == weights[j].

    The equation (X A - B X)[a, b] = 0 has the coefficient
    delta_ai A[j, b] - delta_bj B[a, i] on the entry X[i, j], so support entry
    (i, j) reaches only the rows (i, b) with A[j, b] != 0 and (a, j) with
    B[a, i] != 0; rows reached by no entry are identically zero and are never
    built.  The rows are ordered by (pair, a, b).
    """
    w = np.asarray(weights)
    ui, uj = np.nonzero((w[:, None, :] == w[None, :, :]).all(axis=-1))
    dim = len(w)
    # entry e times A[p, uj, b] lands on row (p, ui, b), f times -B[p, a, ui] on (p, a, uj)
    (p, e, b), (r, f, a) = np.nonzero(a_mask[:, uj]), np.nonzero(b_mask[:, :, ui].transpose(0, 2, 1))
    keys = np.concatenate([(p * dim + ui[e]) * dim + b, (r * dim + a) * dim + uj[f]])
    keys, row = np.unique(keys, return_inverse=True)
    return NullspaceLayout(ui, uj, row, np.concatenate([e, f]), (p, uj[e], b), (r, a, ui[f]),
                           (len(keys), len(ui)))


def layout_nullspace(layout: NullspaceLayout, A: np.ndarray, B: np.ndarray):
    """The null space of X -> X A - B X over the pairs of the stacks A and B,
    on the rows and unknowns of ``layout``.

    Each pair's block of rows is divided by its largest coefficient, which
    keeps its null space but puts every generator on one scale (the
    boundary charges grow like q^M).  The blocks are stacked into one dense
    system, reduced to its triangular QR factor R, and an SVD of R gives the
    singular values of the whole system with its right singular vectors.
    Returns (x, sv): x holds the right singular vector of the smallest sigma
    over the unknowns X[layout.ui, layout.uj], and sv all n singular values,
    descending, padded with zeros when the system has fewer rows than
    unknowns.
    """
    scale = np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(B).max(axis=(1, 2)))
    p, r = layout.a_at[0], layout.b_at[0]
    system = np.zeros(layout.shape, dtype=complex)
    np.add.at(system, (layout.row, layout.col),
              np.concatenate([A[layout.a_at] / scale[p], -B[layout.b_at] / scale[r]]))
    _, sv, vh = np.linalg.svd(np.linalg.qr(system, mode="r"))
    return vh[-1].conj(), np.concatenate([sv, np.zeros(layout.shape[1] - len(sv))])


def weight_nullspace(pairs, weights):
    """Null space of X -> X A - B X over every (A, B) in ``pairs``, X being
    supported on the entries X[i, j] with weights[i] == weights[j]: the
    layout of the pairs' nonzero entries (nullspace_layout), solved by
    layout_nullspace.  Returns (X, sv, (m, n)): X holds the null vector, sv
    the singular values and (m, n) the system's rows and unknowns.
    """
    A, B = (np.array(side) for side in zip(*pairs))  # pair p's matrices at [p]
    layout = nullspace_layout(A != 0, B != 0, weights)
    x, sv = layout_nullspace(layout, A, B)
    X = np.zeros(A.shape[1:], dtype=complex)
    X[layout.ui, layout.uj] = x
    return X, sv, layout.shape


class AdaptedBases(NamedTuple):
    """The basis V of V1 (x) V2 adapted to the bosonic Delta_12.

    Its columns are ordered by (lambda, copy, position), as are those of
    V2 (x) V1, so Ř = V_21 C V_12^-1 for a C = sum c_lambda (x) I.  Its
    reduced form C_red, the block-diagonal N x N matrix of the c_lambda,
    N = sum mult(lambda), joins the reduced indices of equal ``labels``
    lambda = (l1, l3), the weight rule of weight_nullspace; the shared
    ``support`` (ui, uj, ki, kj) expands it, C[ui, uj] = C_red[ki, kj].
    ``pairs`` maps each fermionic generator to the position pairs that
    reduced_matrix reads.
    """

    V: np.ndarray
    V_inv: np.ndarray
    support: tuple
    cond_V: float
    labels: np.ndarray
    pairs: dict

    def reduced_matrix(self, gen: str, delta) -> np.ndarray:
        """The N x N reduced matrix of ``delta``, the terms of the coproduct
        of the fermionic ``gen`` or of one of its pieces, at the position
        pairs of ``pairs[gen]``:
        only those rows and columns of V^-1 delta V are computed, and delta
        acts on V[:, cols] term by term."""
        i, j, rows, cols, ri, ci = self.pairs[gen]
        X = np.zeros((len(self.labels), len(self.labels)), dtype=complex)
        X[i, j] = (self.V_inv[rows] @ _times(delta, self.V[:, cols]))[ri, ci]
        return X


def _ranges(counts):
    """(k, t) over t = 0..counts[k] - 1 for every k in turn."""
    k = np.repeat(np.arange(len(counts)), counts)
    return k, np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)


def _position_pairs(blocks, shift):
    """Where the reduced matrix of a fermionic generator with step ``shift``
    on (H1, -H3), the key of lambda, is read: (i, j, rows, cols, ri, ci), its
    entry [i, j] being (V^-1 Delta V)[rows, cols][ri, ci].  ``blocks`` holds
    (l1, l3, mult, first column, first reduced index) per lambda.

    The generator is a rank-(1/2, 1/2) q-tensor of the bosonic pair, so by
    the q-Wigner-Eckart theorem it maps copy alpha of lambda to copy beta of
    mu only for mu - lambda = (+-1, +-1), as a_red[beta, alpha] times a
    q-Clebsch-Gordan factor of the positions that depends on neither the
    copies nor the kinematics.  Position (a, b) of lambda goes to
    (a + s1, b + s3) of mu, s = (mu - lambda - shift) / 2, and no factor of a
    j (x) 1/2 coupling vanishes off a root of unity, so each block is read at
    its first such pair: its equations are then those of all its pairs, up to
    the block's factor, which Delta_12 and Delta_21 share.
    """
    L = np.array(blocks)
    l1, l3, m1, m3 = L[:, :1], L[:, 1:2], L[:, 0], L[:, 1]  # lambda down, mu across
    s1, s3 = (m1 - l1 - shift[0]) // 2, (m3 - l3 - shift[1]) // 2
    a, b = np.maximum(0, -s1), np.maximum(0, -s3)
    lam, mu = np.nonzero((abs(m1 - l1) == 1) & (abs(m3 - l3) == 1) & (a <= l1)
                         & (a + s1 <= m1) & (b <= l3) & (b + s3 <= m3))
    s1, s3, a, b = (x[lam, mu] for x in (s1, s3, a, b))
    k, t = _ranges(L[mu, 2] * L[lam, 2])  # each block's copy pairs, beta major
    lam, mu, s1, s3, a, b = (x[k] for x in (lam, mu, s1, s3, a, b))
    (l1, l3, mult, col, off), (m1, m3, _, col_m, off_m) = L[lam].T, L[mu].T
    beta, alpha = np.divmod(t, mult)
    rows, ri = np.unique(col_m + beta * (m1 + 1) * (m3 + 1) + (b + s3) * (m1 + 1) + a + s1,
                         return_inverse=True)
    cols, ci = np.unique(col + alpha * (l1 + 1) * (l3 + 1) + b * (l1 + 1) + a,
                         return_inverse=True)
    return off_m + beta, off + alpha, rows, cols, ri, ci


def _adapted_basis(ops, weights, q) -> AdaptedBases:
    """The AdaptedBases of the bosonic coproducts ``ops`` (E1, F1, E3, F3 on
    a space with the (H1, H3) ``weights``, each as its terms).

    E1 raises H1 by 2 and E3 lowers H3 by 2, so the highest weights are
    lambda = (l1, l3) = (H1, -H3) with l1, l3 >= 0, taken in ascending order.
    With n the weight-space dimensions, lambda occurs
    n(l1, l3) - n(l1 + 2, l3) - n(l1, l3 + 2) + n(l1 + 2, l3 + 2) times.  An
    orthonormal basis of the null space of E1 and E3 on its weight space
    gives the highest-weight vectors v, and all of them are lowered at once
    to the columns F1^a F3^b v / N, b = 0..l3 and a = 0..l1, with
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
    labels, blocks = [], []
    col = off = 0
    for l1, l3 in sorted(states):
        mult = (count((l1, l3)) - count((l1 + 2, l3))
                - count((l1, l3 + 2)) + count((l1 + 2, l3 + 2)))
        if l1 < 0 or l3 < 0 or mult == 0:
            continue
        here = states[l1, l3]
        above = states.get((l1 + 2, l3), []) + states.get((l1, l3 + 2), [])
        if above:
            raising = np.vstack([_block(E1, above, here), _block(E3, above, here)])
            tops = np.linalg.svd(raising)[2][len(here) - mult:].conj()
        else:
            tops = np.eye(mult)
        labels += [(l1, l3)] * mult
        blocks.append((l1, l3, mult, col, off))
        off += mult
        # copy alpha at position p = b (l1 + 1) + a is column col + alpha P + p
        P = (l1 + 1) * (l3 + 1)
        copies = col + P * np.arange(mult)
        chain = np.zeros((dim, mult), dtype=complex)
        chain[here] = tops.T
        for b in range(l3 + 1):
            if b:
                chain = _times(F3, chain) / sqrt(qint(b, q) * qint(l3 - b + 1, q))
            v = chain
            for a in range(l1 + 1):
                if a:
                    v = _times(F1, v) / sqrt(qint(a, q) * qint(l1 - a + 1, q))
                at = copies + b * (l1 + 1) + a
                V[:, at] = v
                columns.setdefault((l1 - 2 * a, l3 - 2 * b), []).extend(at)
        col += mult * P
    V_inv = np.zeros_like(V)
    sv = []
    by_size = {}  # the weight spaces of each dimension, inverted as one stack
    for w, rows in states.items():
        by_size.setdefault(len(rows), []).append((rows, columns[w]))
    for group in by_size.values():
        rows, cols = (np.array(x) for x in zip(*group))
        stack = V[rows[:, :, None], cols[:, None, :]]
        sv.append(np.linalg.svd(stack, compute_uv=False).ravel())
        V_inv[cols[:, :, None], rows[:, None, :]] = np.linalg.inv(stack)
    sv = np.concatenate(sv)
    # the support: entry (beta, alpha) of c_lambda at every position p of lambda
    l1, l3, mult, col, off = np.array(blocks).T
    P = (l1 + 1) * (l3 + 1)
    k, t = _ranges(mult * mult * P)
    (beta, alpha), p = np.divmod(t // P[k], mult[k]), t % P[k]
    # E2 and E4 step lambda alike, as do F2 and F4: they share their pairs
    shifts = {g: (SHIFTS[g][0], -SHIFTS[g][1]) for g in FERMIONIC}
    pairs = {shift: _position_pairs(blocks, shift) for shift in set(shifts.values())}
    return AdaptedBases(
        V, V_inv,
        (col[k] + beta * P[k] + p, col[k] + alpha * P[k] + p, off[k] + beta, off[k] + alpha),
        float(sv.max() / sv.min()), np.array(labels), {g: pairs[shifts[g]] for g in FERMIONIC},
    )


#: Room for every ordered pair of eight bound-state numbers: a suite over
#: M = 1..8 builds each basis once, though each S solve takes two of them.
@functools.lru_cache(maxsize=64)
def adapted_bases(M1: int, M2: int, q) -> AdaptedBases:
    """The AdaptedBases of V_M1 (x) V_M2 at q, built once per (M1, M2, q).

    Delta(E1), Delta(F1), Delta(E3), Delta(F3) carry no kinematics: the U
    power of their coproducts is 0, and K1, K3 contain no C.  So they are
    built from kinematics-free legs (Leg.bosonic).  The arrays are
    read-only, since every caller shares them.
    """
    leg1, leg2 = Leg.bosonic(M1, q), Leg.bosonic(M2, q)
    bases = _adapted_basis({g: coproduct(g, leg1, leg2) for g in BOSONIC},
                           product_weights(leg1.space, leg2.space), q)
    for a in (bases.V, bases.V_inv, *bases.support, bases.labels,
              *(x for pair in bases.pairs.values() for x in pair)):
        a.flags.writeable = False
    return bases


def _piece_terms(s1: RepSpace, s2: RepSpace, q) -> dict:
    """The single-term pieces (A, B) of the supercharges' coproducts on
    s1 (x) s2, "E" those of E2, E4 and "F" those of F2, F4, in the order of
    their coefficients (_piece_coefficients).  The first factor of an odd
    second one carries the Koszul sign s of leg 1 (coalgebra.koszul_term)."""
    st1, st2 = supercharge_steps(q, s1), supercharge_steps(q, s2)
    sign = 1 - 2 * s1.parities
    h1, h2 = (-s.weights.sum(axis=1) / 2 for s in (s1, s2))  # h = (k - l + m - n) / 2
    one, qh = np.eye(s2.dim), np.diag(q**h2)
    kinv = np.diag(sign * q**-h1)  # K_i^-1 with its V power taken out, signed
    return {"E": [(st1["a"], one), (st1["b"], one), (kinv, st2["a"]), (kinv, st2["b"])],
            "F": [(st1["c"], qh), (st1["d"], qh), (np.diag(sign), st2["c"]),
                  (np.diag(sign), st2["d"])]}


@functools.lru_cache(maxsize=64)
def reduced_pieces(M1: int, M2: int, q) -> dict:
    """The reduced pieces of V_M1 (x) V_M2 at q, built once per (M1, M2, q),
    as is adapted_bases: "E" and "F" map to a read-only (4, T) array, row k
    the entries of the reduced matrix of piece k at the T position pairs
    of its step (AdaptedBases.pairs), which E2 and E4 (F2 and F4) share."""
    bases = adapted_bases(M1, M2, q)
    pieces = {}
    for x, terms in _piece_terms(build_basis(M1), build_basis(M2), q).items():
        i, j = bases.pairs[f"{x}2"][:2]
        pieces[x] = np.array([bases.reduced_matrix(f"{x}2", [term])[i, j] for term in terms])
        pieces[x].flags.writeable = False
    return pieces


def _piece_coefficients(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                        generators) -> tuple:
    """The four coefficients of the pieces of Delta_12(J) on V1 (x) V2 and of
    Delta_21(J) on V2 (x) V1 for each fermionic J of ``generators``, as the
    module docstring derives them: two dicts, both leg orders from one
    evaluation of each point's labels."""
    out = {}, {}
    for i, d, labels in ((2, 1, bulk_labels), (4, -1, affine_labels)):
        if {f"E{i}", f"F{i}"} & set(generators):
            points = (kin1, labels(kin1, params)), (kin2, labels(kin2, params))
            for coefficients, ((ka, (a1, b1, c1, d1)), (kb, (a2, b2, c2, d2))) in zip(
                    out, (points, points[::-1])):
                e, f, u = (ka.U * ka.V) ** d, kb.V**-d, ka.U**-d
                coefficients[f"E{i}"] = np.array([a1, b1, e * a2, e * b2])
                coefficients[f"F{i}"] = np.array([f * c1, f * d1, u * c2, u * d2])
    return out


def reduced_coproducts(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                       generators) -> tuple:
    """The two sides of the reduced system at kin1, kin2: the stacks of the
    N x N reduced matrices of Delta_12(J) on V1 (x) V2 and of Delta_21(J) on
    V2 (x) V1, for J over the fermionic ``generators`` in order, each the
    cached reduced pieces (reduced_pieces) contracted with its four
    coefficients."""
    q = params.q
    sides = []
    for Ms, coefficients in zip(((kin1.M, kin2.M), (kin2.M, kin1.M)),
                                _piece_coefficients(kin1, kin2, params, generators)):
        bases, pieces = adapted_bases(*Ms, q), reduced_pieces(*Ms, q)
        stack = np.zeros((len(generators),) + (len(bases.labels),) * 2, dtype=complex)
        for X, gen in zip(stack, generators):
            i, j = bases.pairs[gen][:2]
            X[i, j] = coefficients[gen] @ pieces[gen[0]]
        sides.append(stack)
    return tuple(sides)


@functools.lru_cache(maxsize=128)
def commutant_layout(M1: int, M2: int, q, generators: tuple):
    """(layout, unknown): the NullspaceLayout of the reduced system of
    V_M1 (x) V_M2 at q over the fermionic ``generators``, built once per
    (M1, M2, q, generators), and the unknown of each entry of the support
    of C (AdaptedBases.support).  A reduced matrix can be nonzero only where
    one of its pieces is; room for two generator sets per adapted_bases entry.
    """
    V12 = adapted_bases(M1, M2, q)
    fermionic = [g for g in generators if g not in BOSONIC]
    n = len(V12.labels)
    masks = []
    for bases, pieces in ((V12, reduced_pieces(M1, M2, q)),
                          (adapted_bases(M2, M1, q), reduced_pieces(M2, M1, q))):
        mask = np.zeros((len(fermionic), n, n), dtype=bool)
        for m, gen in zip(mask, fermionic):
            i, j = bases.pairs[gen][:2]
            m[i, j] = (pieces[gen[0]] != 0).any(axis=0)
        masks.append(mask)
    layout = nullspace_layout(*masks, V12.labels)
    unknown = np.full((n, n), -1)
    unknown[layout.ui, layout.uj] = np.arange(len(layout.ui))
    unknown = unknown[V12.support[2], V12.support[3]]
    for a in (*layout[:4], *layout.a_at, *layout.b_at, unknown):
        a.flags.writeable = False
    return layout, unknown


def intertwiner_system(leg1: Leg, leg2: Leg, generators):
    """The pairs (Delta_12(J), Delta_21(J)) of Ř Delta_12(J) = Delta_21(J) Ř
    over ``generators``, each coproduct as its terms, as pair_residuals takes
    them: the intertwining check of Ř against the full coproducts."""
    return [(coproduct(gen, leg1, leg2), coproduct(gen, leg2, leg1)) for gen in generators]


def commutant_nullspace(kin1: Kinematics, kin2: Kinematics, params: ModelParams,
                        generators=DEFAULT_GENERATORS):
    """Null space of Ř Delta_12(J) = Delta_21(J) Ř over ``generators`` at the
    points kin1, kin2, which must include E1, F1, E3, F3, solved in the
    bosonic commutant Ř = V_21 C V_12^-1: only the other generators give
    equations, one per entry of C_red A_red - B_red C_red for the reduced
    matrices A_red of Delta_12(J) and B_red of Delta_21(J)
    (reduced_coproducts, which evaluates each point's labels once), on the
    cached layout (commutant_layout).  Returns (Ř, sv, (rows, unknowns)) as
    weight_nullspace does.  With SANS_AFFINE the null space exceeds one
    dimension: no spectral gap (the ablation).
    """
    if not set(BOSONIC) <= set(generators):
        raise ValueError(f"the commutant needs {', '.join(BOSONIC)} among the generators")
    M1, M2, q = kin1.M, kin2.M, params.q
    V12, V21 = adapted_bases(M1, M2, q), adapted_bases(M2, M1, q)
    layout, unknown = commutant_layout(M1, M2, q, tuple(generators))
    fermionic = [g for g in generators if g not in BOSONIC]
    x, sv = layout_nullspace(layout, *reduced_coproducts(kin1, kin2, params, fermionic))
    C = np.zeros_like(V12.V)
    C[V12.support[0], V12.support[1]] = x[unknown]
    return V21.V @ C @ V12.V_inv, sv, layout.shape


def spectral_gap(sv) -> float:
    """sigma_1 / sigma_2 of descending ``sv``; inf (no gap) when sigma_2 = 0."""
    return float(sv[-1] / sv[-2]) if sv[-2] > 0 else np.inf


def unique_intertwiner(solution) -> np.ndarray:
    """The one intertwiner of a null-space ``solution`` (X, sv, shape), as
    weight_nullspace and commutant_nullspace return it, scaled so its [0, 0]
    element is 1.

    Basis index 0 is the state |0,0,0,M> of a leg, and |0,0,0,Ma> (x)
    |0,0,0,Mb> of a product Va (x) Vb.  Raises VerificationError unless
    sigma_1 / sigma_2 <= NULL_GAP and that element is nonzero.
    """
    X, sv, _ = solution
    gap = spectral_gap(sv)
    if not gap <= NULL_GAP:
        raise VerificationError(f"no spectral gap: sigma_1 / sigma_2 = {gap:.3g}")
    if abs(X[0, 0]) < 1e-12:
        raise VerificationError("[0, 0] matrix element vanishes; resample")
    X = X / X[0, 0]
    X[0, 0] = 1  # complex x / x can round to 1 - 2^-53
    return X


def pair_residuals(X: np.ndarray, pairs) -> list:
    """||X A - B X|| / max(1, ||X||) for every (A, B) in ``pairs``, A and B
    one-leg matrices (K) or coproduct terms (S), as _times takes them;
    X A = (A^T X^T)^T."""
    norm = max(1.0, float(np.linalg.norm(X)))
    return [float(np.linalg.norm(_times(_transpose(A), X.T).T - _times(B, X))) / norm
            for A, B in pairs]


#: The number of random probe vectors of the Yang-Baxter check.
YBE_PROBES = 4


def ybe_residual(kin1: Kinematics, kin2: Kinematics, kin3: Kinematics, params: ModelParams,
                 rng) -> float:
    """Relative residual of (Ř23 (x) 1)(1 (x) Ř13)(Ř12 (x) 1) =
    (1 (x) Ř12)(Ř13 (x) 1)(1 (x) Ř23), from V1 (x) V2 (x) V3 to
    V3 (x) V2 (x) V1, on YBE_PROBES random vectors: rel_residual(L Omega,
    R Omega) for Omega a dim x k block of standard complex Gaussian columns
    drawn from ``rng``.  Each factor acts on its two legs of Omega's rows by
    reshape, so no factor is embedded in the three-leg space and nothing of
    size dim x dim is formed.

    For E = L - R, ||E Omega||^2 / (k ||E||^2) (Frobenius) is a weighted mean
    of Gamma(k, 1) / k variables, weighted by the squared singular values of
    E, so the residual estimates the dense ||L - R|| / ||L|| within a constant
    factor with high probability (Freivalds 1977; Halko, Martinsson and Tropp,
    SIAM Review 2011, sec. 4.3).  At k = 4 the worst case, a rank-one E, reads
    more than 10 times low with probability P(Gamma(4, 1) < 0.04) ~ 1e-7.
    """
    R12, R13, R23 = (unique_intertwiner(commutant_nullspace(a, b, params))
                     for a, b in ((kin1, kin2), (kin1, kin3), (kin2, kin3)))
    shape = (len(R12) * build_basis(kin3.M).dim, YBE_PROBES)
    omega = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    lhs = _on_left(R23, _on_right(R13, _on_left(R12, omega)))
    rhs = _on_right(R12, _on_left(R13, _on_right(R23, omega)))
    return rel_residual(lhs, rhs)
