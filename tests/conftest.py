import pytest

from qab.kinematics import ModelParams, make_kinematics, solve_shortening
from qab.kmatrix import _k_entries
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


def k_coefficients(K):
    """The reflection coefficients read back from the entries of K, as a dict
    A (k = 0..M), B, D, E (k = 1..M-1) and C (k = 0..M-1, from family 3)."""
    coeffs = {}
    for name, rows, cols in _k_entries(build_basis(len(K) // 4)):
        coeffs.setdefault(name, K[rows, cols])
    return coeffs
