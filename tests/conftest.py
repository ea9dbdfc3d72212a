import numpy as np
import pytest

from qab.coalgebra import graded_tensor
from qab.kinematics import ModelParams, make_kinematics, reflect_kinematics, solve_shortening
from qab.kmatrix import _k_entries, boundary_system, closed_form_kmatrix
from qab.representation import build_basis, identity_operator
from qab.numerics import rel_residual
from qab.smatrix import (
    BOSONIC,
    DEFAULT_GENERATORS,
    _on_left,
    _on_right,
    adapted_bases,
    commutant_nullspace,
    intertwiner_system,
    unique_intertwiner,
    weight_nullspace,
)


@pytest.fixture(scope="session")
def params():
    """Generic coupling point used across suites."""
    return ModelParams(q=1.1, g=0.4)


@pytest.fixture(scope="session")
def params_gammas():
    """Same couplings with nontrivial basis normalizations."""
    return ModelParams(q=1.1, g=0.4, gamma=1.2 + 0.3j, gamma_bar=0.8 - 0.5j)


def kin_at(M, x_minus, params, pick="large"):
    roots = solve_shortening(x_minus, M, params)
    xp = max(roots, key=abs) if pick == "large" else min(roots, key=abs)
    return make_kinematics(M, xp, x_minus, params)


@pytest.fixture(scope="session")
def kin_of(params):
    return lambda M, xm: kin_at(M, xm, params)


def s_nullspace(kin1, kin2, params, generators=DEFAULT_GENERATORS):
    """commutant_nullspace at two points."""
    return commutant_nullspace(kin1, kin2, params, generators)


def leg_commutant_nullspace(leg1, leg2, q, generators=DEFAULT_GENERATORS):
    """The commutant solve from the full coproducts of two Legs: each reduced
    matrix is reduced_matrix of the coproduct's terms, and the system's rows
    are read off their nonzero entries by weight_nullspace.  The oracle of
    commutant_nullspace, which contracts cached pieces on a cached layout."""
    V12 = adapted_bases(leg1.space.M, leg2.space.M, q)
    V21 = adapted_bases(leg2.space.M, leg1.space.M, q)
    fermionic = [g for g in generators if g not in BOSONIC]
    pairs = [
        (V12.reduced_matrix(g, A), V21.reduced_matrix(g, B))
        for g, (A, B) in zip(fermionic, intertwiner_system(leg1, leg2, fermionic))
    ]
    C_red, sv, shape = weight_nullspace(pairs, V12.labels)
    ui, uj, ki, kj = V12.support
    C = np.zeros_like(V12.V)
    C[ui, uj] = C_red[ki, kj]
    return V21.V @ C @ V12.V_inv, sv, shape


def braided_s(kin1, kin2, params):
    """The unique braided Ř: V1 (x) V2 -> V2 (x) V1 of two points, Ř[0, 0] = 1."""
    return unique_intertwiner(s_nullspace(kin1, kin2, params))


def dense_ybe_residual(kin1, kin2, kin3, params):
    """Relative residual of (Ř23 (x) 1)(1 (x) Ř13)(Ř12 (x) 1) =
    (1 (x) Ř12)(Ř13 (x) 1)(1 (x) Ř23) on the whole three-leg space: each
    factor acts on its two legs of the identity, by reshape.  The oracle of
    smatrix.ybe_residual, which applies both sides to random probes."""
    R12, R13, R23 = (braided_s(a, b, params)
                     for a, b in ((kin1, kin2), (kin1, kin3), (kin2, kin3)))
    dim = len(R12) * build_basis(kin3.M).dim
    lhs = _on_left(R23, _on_right(R13, _on_left(R12, np.eye(dim))))
    rhs = _on_right(R12, _on_left(R13, _on_right(R23, np.eye(dim))))
    return rel_residual(lhs, rhs)


def boundary_k(kin, params):
    """K as the unique intertwiner of every boundary charge, A_0 = 1."""
    return unique_intertwiner(weight_nullspace(*boundary_system(kin, params)))


def graded_permutation(space1, space2) -> np.ndarray:
    """Dense P(v (x) w) = (-1)^{|v||w|} w (x) v from V1 (x) V2 to V2 (x) V1.

    The S of S Delta = Delta^op S is P_21 Ř with P_21 = graded_permutation(s2, s1),
    and Delta^op = P_21 Delta_21 P_12; the tests use P as the oracle of the
    braided convention, which the package never builds.
    """
    d1, d2 = space1.dim, space2.dim
    p1, p2 = space1.parities, space2.parities
    P = np.zeros((d2 * d1, d1 * d2))
    for i in range(d1):
        for j in range(d2):
            P[j * d1 + i, i * d2 + j] = (-1.0) ** (p1[i] * p2[j])
    return P


def constant_c_kmatrix(kin, params):
    """The closed-form K with C_k = C_0 = gamma_reflected / gamma at every k,
    the trivial-C_k negative control of the reflection equation."""
    c0 = reflect_kinematics(kin, params).gamma / kin.gamma
    return closed_form_kmatrix(kin, params, c_override=np.full(kin.M, c0))


def k_coefficients(K):
    """The reflection coefficients read back from the entries of K, as a dict
    A (k = 0..M), B, D, E (k = 1..M-1) and C (k = 0..M-1, from family 3)."""
    coeffs = {}
    for name, rows, cols in _k_entries(build_basis(len(K) // 4)):
        coeffs.setdefault(name, K[rows, cols])
    return coeffs


def dense_coproduct(gen, leg1, leg2):
    """The dense Delta(gen) on V1 (x) V2 as a GradedOperator, summed from
    graded_tensor products of the generator matrices of the two Legs: the
    oracle of coalgebra.coproduct's terms.

    Delta(E_j) = E_j (x) 1 + K_j^-1 U^{d_j} (x) E_j,
    Delta(F_j) = F_j (x) K_j + U^{-d_j} (x) F_j, Delta(K_j) = K_j (x) K_j,
    d_j = delta_{j,2} - delta_{j,4}.
    """
    s1, s2 = leg1.space, leg2.space
    o1, o2 = leg1.gens, leg2.gens
    j = gen[1]
    if gen[0] == "K":
        return graded_tensor(o1[gen], o2[gen], s1, s2)
    u = leg1.U ** {"2": 1, "4": -1}.get(j, 0)
    if gen[0] == "E":
        return (graded_tensor(o1[gen], identity_operator(s2), s1, s2)
                + graded_tensor(u * o1["K" + j].inv(), o2[gen], s1, s2))
    return (graded_tensor(o1[gen], o2["K" + j], s1, s2)
            + graded_tensor((1 / u) * identity_operator(s1), o2[gen], s1, s2))


def dense(terms) -> np.ndarray:
    """The matrix sum of np.kron(a, b) over the terms (a, b) of a two-leg operator."""
    return sum(np.kron(a, b) for a, b in terms)
