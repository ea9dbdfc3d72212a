"""Two-leg operators, coproducts and the twisted coideal boundary charges.

The tensor product of graded operators carries the Koszul sign
(A (x) B)(v (x) w) = (-1)^{|B||v|} (Av) (x) (Bw); this is the unique sign
convention under which the (sign-free) coproduct displays become algebra
homomorphisms in the representation.  The legs are taken in the order given:
coproduct(J, leg2, leg1) is Delta_21(J) on V2 (x) V1, which is all the
opposite coproduct needs, so no graded flip of legs is ever built.
Every operator on two legs is a TwoLeg: its Kronecker terms of one-leg
matrices, with the Koszul sign folded into the first factor.  Products,
sums and transposes act on the terms, (a (x) b)(c (x) d) = ac (x) bd, and a
TwoLeg acts on a matrix whose rows are the two legs by reshape, so no
two-leg matrix is multiplied; the coalgebra checks form the dense sum of
terms (TwoLeg.matrix) only for the two operands they compare.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .kinematics import Kinematics, ModelParams, derive_couplings, on_shell, reflect_kinematics
from .numerics import qint, rel_residual
from .representation import (
    D_DIAG,
    GradedOperator,
    all_generators,
    bosonic_generators,
    build_basis,
    graded_commutator,
    identity_operator,
)


def _on_left(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(R (x) 1) T: R acts on the leading legs of the rows of T."""
    return (R @ T.reshape(R.shape[1], -1)).reshape(-1, T.shape[1])


def _on_right(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(1 (x) R) T: R acts on the trailing legs of the rows of T."""
    return (R @ T.reshape(-1, R.shape[1], T.shape[1])).reshape(-1, T.shape[1])


class TwoLeg:
    """An operator on V1 (x) V2 of parity ``parity`` as its Kronecker terms,
    the sum over t of kron(a[t], b[t]) for the stacks a (T, d1, d1) and
    b (T, d2, d2); a Koszul sign is folded into a (koszul_term)."""

    def __init__(self, a: np.ndarray, b: np.ndarray, parity: int):
        self.a, self.b, self.parity = a, b, parity

    def __matmul__(self, other):
        """The product with a TwoLeg, term by term, or the action on a matrix
        whose rows are the two legs, each factor on its own (_on_left, _on_right)."""
        if isinstance(other, np.ndarray):
            return sum(_on_left(a, _on_right(b, other)) for a, b in zip(self.a, self.b))
        a, b = ((x[:, None] @ y[None]).reshape(-1, *x.shape[1:])
                for x, y in ((self.a, other.a), (self.b, other.b)))
        return TwoLeg(a, b, (self.parity + other.parity) % 2)

    def __add__(self, other: "TwoLeg") -> "TwoLeg":
        if self.parity != other.parity:
            raise ValueError("cannot add operators of different parity")
        return TwoLeg(np.concatenate([self.a, other.a]), np.concatenate([self.b, other.b]),
                      self.parity)

    def __sub__(self, other: "TwoLeg") -> "TwoLeg":
        return self + -1 * other

    def __mul__(self, scalar) -> "TwoLeg":
        return TwoLeg(self.a * scalar, self.b, self.parity)

    __rmul__ = __mul__

    def inv(self) -> "TwoLeg":
        """The inverse of one term of diagonal factors, as a K_i coproduct is."""
        if len(self.a) != 1:
            raise ValueError("only single-term operators are inverted here")
        return TwoLeg(*(GradedOperator(x[0], 0).inv().matrix[None] for x in (self.a, self.b)),
                      self.parity)

    @property
    def T(self) -> "TwoLeg":
        """The transpose: kron(a, b)^T = kron(a^T, b^T)."""
        return TwoLeg(self.a.transpose(0, 2, 1), self.b.transpose(0, 2, 1), self.parity)

    @property
    def matrix(self) -> np.ndarray:
        """The dense sum of the terms, in one matrix product over them."""
        (T, d1, _), d2 = self.a.shape, self.b.shape[1]
        dense = self.a.reshape(T, -1).T @ self.b.reshape(T, -1)  # [(i1, j1), (i2, j2)]
        return dense.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, -1)


def koszul_term(A: GradedOperator, B: GradedOperator, space1) -> TwoLeg:
    """A (x) B as the one-term TwoLeg kron(A', B): column j1 of A' is that
    of A times the Koszul sign (-1)^{|B| p(j1)}."""
    a = A.matrix if B.parity == 0 else A.matrix * (1 - 2 * space1.parities)
    return TwoLeg(a[None], B.matrix[None], (A.parity + B.parity) % 2)


class Leg:
    """One coproduct leg: generator matrices plus the central scalars."""

    def __init__(self, kin, params):
        self.space = build_basis(kin.M)
        self.gens = all_generators(kin, params, self.space)
        self.U = kin.U

    @classmethod
    def bosonic(cls, M: int, q) -> "Leg":
        """A leg of bound-state number M holding only the kinematics-free
        generators (bosonic_generators) and U = 1: enough for the coproducts
        of E1, F1, E3, F3 in either leg order, whose U power is 0."""
        leg = cls.__new__(cls)
        leg.space = build_basis(M)
        leg.gens = bosonic_generators(q, leg.space)
        leg.U = 1
        return leg


def coproduct(gen: str, leg1: Leg, leg2: Leg) -> TwoLeg:
    """Standard coproduct Delta(J) on V1 (x) V2 as a TwoLeg of one or two
    terms (koszul_term).

    Delta(E_j) = E_j (x) 1 + K_j^-1 U^{d_j} (x) E_j and
    Delta(F_j) = F_j (x) K_j + U^{-d_j} (x) F_j with d_j = delta_{j,2} - delta_{j,4}
    (the representation fixes U_2 = U, U_4 = 1/U); Delta(K_j) = K_j (x) K_j.
    """
    s1, s2 = leg1.space, leg2.space
    o1, o2 = leg1.gens, leg2.gens
    if gen.startswith("K"):
        return koszul_term(o1[gen], o2[gen], s1)
    u = leg1.U ** {"2": 1, "4": -1}.get(gen[1], 0)  # U^{d_j}
    if gen.startswith("E"):
        return (koszul_term(o1[gen], identity_operator(s2), s1)
                + koszul_term(u * o1["K" + gen[1]].inv(), o2[gen], s1))
    return (koszul_term(o1[gen], o2["K" + gen[1]], s1)
            + koszul_term((1 / u) * identity_operator(s1), o2[gen], s1))


# ---------------------------------------------------------------------------
# Adjoint actions (Letzter dictionary: x_i = E_i, y_i = F_i, t_i = K_i).


def ad_r(gen: str, b: GradedOperator, ops: dict) -> GradedOperator:
    """Right twisted adjoint action of one generator.

    ad_r x_i (b) = t_i b x_i - (-1)^{[i][b]} t_i x_i b
    ad_r y_i (b) = b y_i - (-1)^{[i][b]} y_i t_i^-1 b t_i
    ad_r t_i (b) = t_i b t_i^-1
    """
    kind, i = gen[0], gen[1]
    t = ops[f"K{i}"]
    if kind == "K":
        return t @ b @ t.inv()
    x = ops[gen]
    sign = (-1) ** (x.parity * b.parity)
    if kind == "E":
        return t @ b @ x - sign * (t @ x @ b)
    return b @ x - sign * (x @ t.inv() @ b @ t)


def boundary_d_constants(params: ModelParams):
    """(d_y, d_x) fixed by invariance of the twisted central charges."""
    _, g_tilde = derive_couplings(params.q, params.g)
    a, at = params.alpha, params.alpha_tilde
    d_y = g_tilde / (params.g * a * at)
    d_x = -a * at * g_tilde / params.g
    return d_y, d_x


TWISTED_CHARGES = ("Et321", "Ft321", "Et21", "Ft21", "Et1", "Ft1", "Ct2", "Ct3")


def level_one_charges(ops: dict, params: ModelParams) -> tuple:
    """(Et321, Ft321), the two twisted level-one charges of the boundary
    coideal algebra, from which twisted_boundary_charges builds the other
    six; ``ops`` as that function takes it."""
    d_y, d_x = boundary_d_constants(params)
    e1p = ops["K1"] @ ops["E1"]
    e4p = ops["K4"] @ ops["E4"]
    k4_inv = ops["K4"].inv()
    theta_f4 = ad_r("E3", ad_r("E2", e1p, ops), ops)
    theta_e4p = ad_r("F3", ad_r("F2", ops["F1"], ops), ops)
    return (ops["F4"] @ k4_inv + d_y * (theta_f4 @ k4_inv),
            e4p @ k4_inv + d_x * (theta_e4p @ k4_inv))


def twisted_boundary_charges(ops: dict, params: ModelParams) -> dict:
    """The eight twisted affine charges of the boundary coideal algebra.

    ``ops`` maps generator names to operators; passing representation
    matrices yields the charges on one leg, passing coproducts (TwoLegs)
    yields their images on a tensor product.
    """
    et321, ft321 = level_one_charges(ops, params)
    et21 = ad_r("F3", et321, ops)
    ft21 = ad_r("E3", ft321, ops)
    return {
        "Et321": et321,
        "Ft321": ft321,
        "Et21": et21,
        "Ft21": ft21,
        "Et1": ad_r("F2", et21, ops),
        "Ft1": ad_r("E2", ft21, ops),
        "Ct2": ad_r("E2", et321, ops),
        "Ct3": ad_r("F2", ft321, ops),
    }


def coideal_expansion_check(leg1: Leg, leg2: Leg, dmap: dict, params: ModelParams) -> dict:
    """Residuals of the two displayed coproduct expansions of the twisted
    level-one charges, as matrix identities on V1 (x) V2; ``dmap`` maps each
    generator to its coproduct on leg1 (x) leg2.  Only the two charges
    compared are built (level_one_charges), on V1 (x) V2 and on leg 2, as
    Kronecker terms: each side is made dense only to be compared."""
    s1, s2 = leg1.space, leg2.space
    d_y, d_x = boundary_d_constants(params)
    q = params.q
    U1 = leg1.U

    # Left-hand sides: the two charges built from coproduct images.
    lhs_e, lhs_f = level_one_charges(dmap, params)
    # Single-leg building blocks.
    o1, o2 = leg1.gens, leg2.gens
    et321_2, ft321_2 = level_one_charges(o2, params)
    k4i_1 = o1["K4"].inv()
    k5_2 = o2["K1"] @ o2["K2"] @ o2["K3"] @ o2["K4"].inv()
    e1p_1 = o1["K1"] @ o1["E1"]
    e2p_2 = o2["K2"] @ o2["E2"]
    gt = lambda A, B: koszul_term(A, B, s1)
    theta_f4_1 = ad_r("E3", ad_r("E2", e1p_1, o1), o1)
    rhs_e = (
        gt(o1["F4"] @ k4i_1, identity_operator(s2))
        + gt(U1 * k4i_1, et321_2)
        + d_y * gt(theta_f4_1 @ k4i_1, k5_2)
        + (d_y * (q**2 - 1)) * (
            (1 / q) * gt(k4i_1 @ ad_r("E2", e1p_1, o1), k5_2 @ o2["E3"])
            - U1 * gt(e1p_1 @ k4i_1, o2["K1"] @ o2["K4"].inv() @ ad_r("E3", e2p_2, o2)))
    )

    theta_e4p_1 = ad_r("F3", ad_r("F2", o1["F1"], o1), o1)
    e4p_1 = o1["K4"] @ o1["E4"]
    rhs_f = (
        gt(e4p_1 @ k4i_1, identity_operator(s2))
        + gt((1 / U1) * k4i_1, ft321_2)
        + d_x * gt(theta_e4p_1 @ k4i_1, k5_2)
        - (d_x * (q**2 - 1)) * (
            gt(k4i_1 @ ad_r("F2", o1["F1"], o1), o2["K3"].inv() @ k5_2 @ o2["F3"])
            - (1 / U1)
            * gt(k4i_1 @ o1["F1"], ad_r("F3", o2["F2"], o2) @ o2["K1"] @ o2["K4"].inv()))
    )

    return {
        "coideal_E321": rel_residual(lhs_e.matrix, rhs_e.matrix),
        "coideal_F321": rel_residual(lhs_f.matrix, rhs_f.matrix),
    }


def twisted_f1_action_residual(kin: Kinematics, tw: dict, params: ModelParams) -> float:
    """Residual of the raising action of the twisted charge on |k>^{3,4}:
    Ft1 |k>^a = d_x [M-k-1]_q q^{-M/2-k-1} (q^M - q^{2k+2} z) V^-1 |k+1>^a,
    ``tw`` being the twisted_boundary_charges of the point ``kin``.
    """
    space = build_basis(kin.M)
    q, M = params.q, kin.M
    _, d_x = boundary_d_constants(params)
    expected = np.zeros((space.dim, space.dim), dtype=complex)
    for fam in (3, 4):
        idx = space.families[fam]
        for k in range(M - 1):
            f_k = (
                d_x
                * qint(M - k - 1, q)
                * q ** (-M / 2 - k - 1)
                * (q**M - q ** (2 * k + 2) * kin.z)
                / kin.V
            )
            expected[idx[k + 1], idx[k]] = f_k
    rows = [i for fam in (3, 4) for i in space.families[fam]]
    block = np.ix_(rows, rows)
    return rel_residual(tw["Ft1"].matrix[block], expected[block])


def twisted_central_invariance(kin: Kinematics, tw: dict, params: ModelParams) -> dict:
    """Reflection invariance of the twisted central charges ``tw`` of the
    point ``kin`` (its twisted_boundary_charges).

    On the representation Ct2 and Ct3 come out diagonal (they carry an H_2
    admixture, visible in their rational limit) and are invariant entrywise
    under the reflection map; both residuals are reported per charge.
    """
    space = build_basis(kin.M)
    rops = all_generators(reflect_kinematics(kin, params), params, space)
    tw_r = twisted_boundary_charges(rops, params)
    out = {}
    for name in ("Ct2", "Ct3"):
        m = tw[name].matrix
        off_diag = rel_residual(m, np.diag(np.diag(m)))
        invariance = rel_residual(m, tw_r[name].matrix)
        out[name] = {"off_diagonal": off_diag, "reflection_invariance": invariance}
    return out


def yangian_limit_probe(q_values, x_minus, M: int, params: ModelParams):
    """Convergence table of the rescaled twisted charges along q -> 1.

    ``params`` supplies every coupling but q, which runs over ``q_values``.
    The kinematic point is held at fixed x-; x+ is re-solved from the
    shortening condition at every q (tracking the root continuously).
    Charges Et321, Et21, Et1, Ct2 are rescaled by alpha*alpha_tilde/(2(q-1)),
    their F partners by 1/(2 alpha alpha_tilde (q-1)).
    """
    a, at = params.alpha, params.alpha_tilde
    matrices = {name: [] for name in TWISTED_CHARGES}
    space = build_basis(M)
    x_plus = None
    for q in q_values:
        p = replace(params, q=q)
        kin = on_shell(M, x_minus, p, near=x_plus)
        x_plus = kin.x_plus
        tw = twisted_boundary_charges(all_generators(kin, p, space), p)
        for name in TWISTED_CHARGES:
            if name.startswith(("Et", "Ct2")):
                scale = a * at / (2 * (q - 1))
            else:
                scale = 1 / (2 * a * at * (q - 1))
            matrices[name].append(scale * tw[name].matrix)
    table = {}
    for name, mats in matrices.items():
        diffs = [
            float(np.linalg.norm(mats[i + 1] - mats[i])) for i in range(len(mats) - 1)
        ]
        norms = [float(np.linalg.norm(m)) for m in mats]
        ratios = [
            diffs[i + 1] / diffs[i] if diffs[i] > 0 else 0.0
            for i in range(len(diffs) - 1)
        ]
        table[name] = {"norms": norms, "diffs": diffs, "ratios": ratios}
    return table


def hom_check(dmap: dict, params: ModelParams) -> dict:
    """Residuals showing the coproduct map is an algebra homomorphism on the
    diagonal [E_j, F_j} relations."""
    q = params.q
    out = {}
    for j in range(1, 5):
        lhs = graded_commutator(dmap[f"E{j}"], dmap[f"F{j}"])
        rhs = (D_DIAG[j - 1] / (q - 1 / q)) * (dmap[f"K{j}"] - dmap[f"K{j}"].inv())
        out[f"E{j}F{j}"] = rel_residual(lhs.matrix, rhs.matrix)
    return out
