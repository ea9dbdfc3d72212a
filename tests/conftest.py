import numpy as np
import pytest

from qab.kinematics import ModelParams, make_kinematics, reflect_kinematics, solve_shortening
from qab.kmatrix import _k_entries, closed_form_kmatrix
from qab.representation import build_basis


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
