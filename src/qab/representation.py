"""The 4M-dimensional q-oscillator bound-state representation.

States |m,n,k,l> carry two fermionic occupation numbers m, n in {0,1} and two
bosonic levels k, l >= 0 with m+n+k+l = M.  The basis is stored family-major,

    |k>^1 = |0,0,k,M-k>        k = 0..M
    |k>^2 = |1,1,k-1,M-k-1>    k = 1..M-1
    |k>^3 = |1,0,k,M-k-1>      k = 0..M-1
    |k>^4 = |0,1,k,M-k-1>      k = 0..M-1

so the reflection matrix acts block-contiguously.  Chevalley generators are
dense matrices tagged with a parity; supercharges (i = 2, 4) are odd.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .kinematics import Kinematics, ModelParams, affine_labels, bulk_labels, derive_couplings
from .numerics import log, qint, rel_residual

# Symmetrized Cartan matrix DA and normalization D = diag(1,-1,-1,-1).
DA = np.array(
    [
        [2, -1, 0, -1],
        [-1, 0, 1, 0],
        [0, 1, -2, 1],
        [-1, 0, 1, 0],
    ]
)
D_DIAG = (1, -1, -1, -1)

GENERATOR_PARITY = {
    **{f"E{i}": (1 if i in (2, 4) else 0) for i in (1, 2, 3, 4)},
    **{f"F{i}": (1 if i in (2, 4) else 0) for i in (1, 2, 3, 4)},
    **{f"K{i}": 0 for i in (1, 2, 3, 4)},
}
GENERATORS = tuple(GENERATOR_PARITY)


@dataclass(frozen=True)
class RepSpace:
    """Enumerated bound-state basis for a given M."""

    M: int
    states: tuple  # tuples (m, n, k, l), family-major
    index: dict = field(repr=False)
    families: dict = field(repr=False)  # family -> list of basis indices, k ascending
    parities: np.ndarray = field(repr=False, compare=False)  # (m + n) % 2 per state

    @property
    def dim(self) -> int:
        return len(self.states)


def build_basis(M: int) -> RepSpace:
    """Family-major basis of dimension 4M with blocks (M+1, M-1, M, M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    states = []
    families = {}
    families[1] = []
    for k in range(M + 1):
        families[1].append(len(states))
        states.append((0, 0, k, M - k))
    families[2] = []
    for k in range(1, M):
        families[2].append(len(states))
        states.append((1, 1, k - 1, M - k - 1))
    families[3] = []
    for k in range(M):
        families[3].append(len(states))
        states.append((1, 0, k, M - k - 1))
    families[4] = []
    for k in range(M):
        families[4].append(len(states))
        states.append((0, 1, k, M - k - 1))
    index = {s: i for i, s in enumerate(states)}
    assert len(states) == 4 * M
    parities = np.array([(m + n) % 2 for m, n, _, _ in states])
    return RepSpace(
        M=M, states=tuple(states), index=index, families=families, parities=parities
    )


@dataclass(frozen=True)
class GradedOperator:
    """Dense matrix over a graded basis together with its parity."""

    # an object matrix's repr formats every mpmath entry; mpmath builds one
    # for its error message each time `mpc * op` falls back to __rmul__
    matrix: np.ndarray = field(repr=False)
    parity: int

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(
            nm.mdot(self.matrix, other.matrix),
            (self.parity + other.parity) % 2,
        )

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if self.parity != other.parity:
            raise ValueError("cannot add operators of different parity")
        return GradedOperator(self.matrix + other.matrix, self.parity)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        if self.parity != other.parity:
            raise ValueError("cannot subtract operators of different parity")
        return GradedOperator(self.matrix - other.matrix, self.parity)

    def __mul__(self, scalar) -> "GradedOperator":
        if self.matrix.dtype != object:
            return GradedOperator(self.matrix * scalar, self.parity)
        m = self.matrix.copy()  # exact zeros stay as they are, as in nm.mdot
        nz = m.nonzero()
        m[nz] = m[nz] * scalar
        return GradedOperator(m, self.parity)

    __rmul__ = __mul__

    def inv(self) -> "GradedOperator":
        if self.parity != 0:
            raise ValueError("only even operators are invertible here")
        return GradedOperator(nm.minv(self.matrix), 0)

    def parity_pattern_residual(self, parities) -> float:
        """Norm of entries violating the zero-pattern of the basis parities."""
        p = np.asarray(parities)
        bad = (p[:, None] + p[None, :] + self.parity) % 2 == 1
        m = self.matrix.astype(complex)  # object (mpmath) entries too
        return float(np.linalg.norm(np.where(bad, m, 0.0)))


def identity_operator(space: RepSpace, dtype=complex) -> GradedOperator:
    return GradedOperator(np.eye(space.dim, dtype=dtype), 0)


#: The generators that carry no kinematics: the bosonic U_q(su(2)) pairs.
BOSONIC_GENERATORS = ("E1", "F1", "K1", "E3", "F3", "K3")


def bosonic_generators(q, space, dtype=complex) -> dict:
    """Matrices of E1, F1, K1, E3, F3, K3 on the bound state.

    They step the oscillator levels (k, l) and the fermion numbers (m, n)
    alone, with K1 = q^{l-k} and K3 = q^{n-m}, so they depend on q and M only.
    """
    qn = [qint(j, q) for j in range(space.M + 1)]
    mats = {gen: np.zeros((space.dim, space.dim), dtype=dtype) for gen in BOSONIC_GENERATORS}
    for col, (m, n, k, l) in enumerate(space.states):
        for gen, target, value in (
            ("E1", (m, n, k - 1, l + 1), qn[k]),
            ("F1", (m, n, k + 1, l - 1), qn[l]),
            ("E3", (m + 1, n - 1, k, l), 1),
            ("F3", (m - 1, n + 1, k, l), 1),
        ):
            # a target outside the basis has an occupation out of range
            row = space.index.get(target)
            if row is not None:
                mats[gen][row, col] += value
        mats["K1"][col, col] += q ** (l - k)
        mats["K3"][col, col] += q ** (n - m)
    return {gen: GradedOperator(mat, 0) for gen, mat in mats.items()}


def all_generators(kin, params, space, dtype=complex) -> dict:
    """Matrices of the twelve Chevalley generators E_i, F_i, K_i on the bound state.

    The bosonic six come from bosonic_generators.  E2, F2 use the bulk labels
    (a, b, c, d); the affine supercharges E4, F4 use the affine labels and
    C -> -C.  K_i is q^{H_i} with the diagonal H_i action, V = q^C.
    """
    q = params.q
    C = log(kin.V) / log(q)
    labels = ((2, bulk_labels(kin, params)), (4, affine_labels(kin, params)))
    qn = [qint(j, q) for j in range(space.M + 1)]
    mats = {
        gen: np.zeros((space.dim, space.dim), dtype=dtype)
        for gen in GENERATORS if gen not in BOSONIC_GENERATORS
    }
    for col, (m, n, k, l) in enumerate(space.states):
        sign = (-1) ** m
        for i, (a, b, c, d) in labels:
            for gen, target, value in (
                (f"E{i}", (m, n + 1, k, l - 1), a * sign * qn[l]),
                (f"E{i}", (m - 1, n, k + 1, l), b),
                (f"F{i}", (m + 1, n, k - 1, l), c * qn[k]),
                (f"F{i}", (m, n - 1, k, l + 1), d * sign),
            ):
                row = space.index.get(target)
                if row is not None:
                    mats[gen][row, col] += value
        h = (k - l + m - n) / 2
        mats["K2"][col, col] += q ** -(C - h)
        mats["K4"][col, col] += q ** (C + h)
    ops = bosonic_generators(q, space, dtype)
    ops.update((gen, GradedOperator(mat, GENERATOR_PARITY[gen])) for gen, mat in mats.items())
    return {gen: ops[gen] for gen in GENERATORS}


def graded_commutator(A: GradedOperator, B: GradedOperator) -> GradedOperator:
    """[A, B} = AB - (-1)^{|A||B|} BA."""
    AB, BA = nm.mdot(A.matrix, B.matrix), nm.mdot(B.matrix, A.matrix)
    return GradedOperator(
        AB + BA if A.parity * B.parity % 2 else AB - BA, (A.parity + B.parity) % 2
    )


def quartic_serre_lhs(kind: str, k: int, ops: dict, lam) -> GradedOperator:
    """{[X1, Xk], [X3, Xk]} - lam Xk X1 X3 Xk for X in {E, F}, with the
    q-Serre scalar lam = q - 2 + 1/q supplied by the caller.

    At k = 2 this is also the central charge C2 (X = E) or C3 (X = F): their
    defining brackets [X2, X1}, [X2, X3} are the negatives of these, exactly.
    """
    x1, x3, xk = ops[f"{kind}1"], ops[f"{kind}3"], ops[f"{kind}{k}"]
    t1 = graded_commutator(
        graded_commutator(x1, xk), graded_commutator(x3, xk)
    )
    t2 = xk @ x1 @ x3 @ xk
    return t1 - lam * t2


def verify_algebra(
    kin: Kinematics,
    params: ModelParams,
    space: RepSpace,
    dtype=complex,
) -> dict:
    """Residuals of every defining relation of the algebra on this module.

    Returns a dict name -> Frobenius-relative residual; the caller compares
    against the tolerance tier.
    """
    q = params.q
    _, g_tilde = derive_couplings(q, params.g)
    alpha, at = params.alpha, params.alpha_tilde
    g = params.g
    ops = all_generators(kin, params, space, dtype=dtype)
    k_inv = {i: ops[f"K{i}"].inv() for i in range(1, 5)}
    lam = q - 2 + 1 / q
    ident = identity_operator(space, dtype=dtype)
    U, V = kin.U, kin.V
    res = {}

    def put(name, L, R):
        # R is a matrix, or the scalar 0 for a relation L = 0
        res[name] = rel_residual(L.matrix, R)

    # Cartan relations K_i X_j K_i^-1 = q^{±DA_ij} X_j.
    for i in range(1, 5):
        Ki = ops[f"K{i}"]
        for j in range(1, 5):
            daij = DA[i - 1][j - 1]
            ej, fj = ops[f"E{j}"], ops[f"F{j}"]
            put(f"K{i}E{j}", Ki @ ej @ k_inv[i], (q**daij * ej).matrix)
            put(f"K{i}F{j}", Ki @ fj @ k_inv[i], (q**-daij * fj).matrix)

    # Diagonal and off-diagonal [E_i, F_j} relations.
    for j in range(1, 5):
        lhs = graded_commutator(ops[f"E{j}"], ops[f"F{j}"])
        rhs = (D_DIAG[j - 1] / (q - 1 / q)) * (ops[f"K{j}"] - k_inv[j])
        put(f"E{j}F{j}", lhs, rhs.matrix)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j and i + j != 6:
                lhs = graded_commutator(ops[f"E{i}"], ops[f"F{j}"])
                put(f"E{i}F{j}", lhs, 0)

    # Mixed affine relations with g_tilde and alpha_tilde.
    put(
        "E2F4",
        graded_commutator(ops["E2"], ops["F4"]),
        ((-g_tilde / at) * (ops["K4"] - (U**2) * k_inv[2])).matrix,
    )
    put(
        "E4F2",
        graded_commutator(ops["E4"], ops["F2"]),
        ((g_tilde * at) * (ops["K2"] - (U**-2) * k_inv[4])).matrix,
    )

    # Cubic Serre relations and the vanishing quadratics.
    for kind in ("E", "F"):
        for j in (1, 3):
            for k in (2, 4):
                xj, xk = ops[f"{kind}{j}"], ops[f"{kind}{k}"]
                lhs = graded_commutator(xj, graded_commutator(xj, xk)) - lam * (
                    xj @ xk @ xj
                )
                put(f"serre_{kind}{j}{k}", lhs, 0)
        x1, x2, x3, x4 = (ops[f"{kind}{i}"] for i in (1, 2, 3, 4))
        put(f"{kind}1{kind}3", graded_commutator(x1, x3), 0)
        put(f"{kind}2{kind}2", x2 @ x2, 0)
        put(f"{kind}4{kind}4", x4 @ x4, 0)
        put(f"{kind}2{kind}4", graded_commutator(x2, x4), 0)

    # Quartic Serre relations with central right-hand sides (k = 2, 4); at
    # k = 2 the left-hand sides are the central charges C2 and C3.
    quartic = {}
    for k, (uk, vk, ak) in {
        2: (U, V, alpha),
        4: (1 / U, 1 / V, alpha * at * at),
    }.items():
        quartic["E", k] = quartic_serre_lhs("E", k, ops, lam)
        quartic["F", k] = quartic_serre_lhs("F", k, ops, lam)
        e_val, f_val = g * ak * (1 - vk**2 * uk**2), g / ak * (vk**-2 - uk**-2)
        put(f"quartic_E{k}", quartic["E", k], (e_val * ident).matrix)
        put(f"quartic_F{k}", quartic["F", k], (f_val * ident).matrix)

    # Central charges C1 = K1 K2^2 K3, C2, C3: scalar values and centrality.
    c1 = ops["K1"] @ ops["K2"] @ ops["K2"] @ ops["K3"]
    c2, c3 = quartic["E", 2], quartic["F", 2]
    put("C1_scalar", c1, ((V**-2) * ident).matrix)
    put("C2_scalar", c2, ((g * alpha * (1 - U**2 * V**2)) * ident).matrix)
    put("C3_scalar", c3, ((g / alpha * (V**-2 - U**-2)) * ident).matrix)
    for name, cc in (("C1", c1), ("C2", c2), ("C3", c3)):
        worst = 0.0
        for gname in GENERATORS:
            lhs = graded_commutator(cc, ops[gname])
            worst = max(worst, rel_residual(lhs.matrix, 0))
        res[f"{name}_central"] = worst

    # K constraints.
    put("K1K2K3K4", ops["K1"] @ ops["K2"] @ ops["K3"] @ ops["K4"], ident.matrix)
    put("V2_constraint", c1.inv(), ((V**2) * ident).matrix)
    c1_affine = ops["K1"] @ ops["K4"] @ ops["K4"] @ ops["K3"]
    put("V4_constraint", c1_affine.inv(), ((V**-2) * ident).matrix)

    # Parity zero-patterns.
    res["parity_pattern"] = max(
        ops[gname].parity_pattern_residual(space.parities) for gname in GENERATORS
    )
    return res
