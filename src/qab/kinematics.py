"""Model couplings, x± kinematics, representation labels and the reflection map.

A bound state is parametrized by its excitation number M and the pair
(x+, x-) constrained by the multiplet-shortening condition.  From these the
central elements U, V, the multiplicative spectral parameter z and the
representation labels (a, b, c, d) plus their affine partners are derived.
The boundary reflection acts on this data as an involution kappa with
U -> 1/U, V -> V, z -> 1/z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import qint, rel_residual, sqrt

DEFAULT_TOL = 1e-10


class KinematicsError(ValueError):
    """Invalid or inconsistent kinematic data."""


class SingularCouplingError(KinematicsError):
    """The effective coupling is singular: 1 - g^2 (q - 1/q)^2 = 0."""


class PoleError(KinematicsError):
    """A kinematic map was evaluated at one of its poles."""


@dataclass(frozen=True)
class ModelParams:
    """Global couplings and phase conventions.

    alpha / alpha_tilde default to the unitary choice (i, 1), for which
    (alpha*alpha_tilde)^2 = -1.  gamma and gamma_bar normalize the bases of
    incoming and reflected states.
    """

    q: complex
    g: complex
    alpha: complex = 1j
    alpha_tilde: complex = 1.0 + 0j
    gamma: complex = 1.0 + 0j
    gamma_bar: complex = 1.0 + 0j

    def check_not_root_of_unity(self, m_max: int = 8) -> None:
        tol = 1e-6
        for n in range(1, 4 * m_max + 1):
            if abs(self.q**n - 1) <= tol and abs(self.q - 1) > tol:
                raise KinematicsError(f"q is numerically a {n}-th root of unity")


def derive_couplings(q, g):
    """Return (xi, g_tilde) with xi = -i*g_tilde*(q - 1/q).

    g_tilde is the principal square root of g^2 / (1 - g^2 (q - 1/q)^2).
    """
    den = 1 - g * g * (q - 1 / q) ** 2
    if abs(den) < 1e-12:
        raise SingularCouplingError("1 - g^2 (q - 1/q)^2 vanishes")
    g_tilde = sqrt(g * g / den)
    xi = -1j * g_tilde * (q - 1 / q)
    return xi, g_tilde


@dataclass(frozen=True)
class Kinematics:
    """One bound state: excitation number, x± pair and derived central data.

    gamma is the basis normalization this state was built with; the reflected
    partner carries the swapped normalization.
    """

    M: int
    x_plus: complex
    x_minus: complex
    U: complex
    V: complex
    z: complex
    gamma: complex


def shortening_residual(x_plus, x_minus, M, params: ModelParams) -> float:
    """Relative residual of the multiplet-shortening condition.

    The xi + 1/xi term is expanded as (q^M - q^-M)*xi + i[M]_q/g_tilde so the
    expression stays finite at q = 1 where xi = 0.
    """
    q = params.q
    xi, g_tilde = derive_couplings(q, params.g)
    lhs = q**-M * (x_plus + 1 / x_plus) - q**M * (x_minus + 1 / x_minus)
    return rel_residual(lhs, (q**M - q**-M) * xi + 1j * qint(M, q) / g_tilde)


def solve_shortening(x_minus, M: int, params: ModelParams):
    """Both roots in x+ of the shortening condition at fixed x-.

    Returns a pair; substituting either back gives a vanishing residual.
    """
    if x_minus == 0:
        raise KinematicsError("x_minus must be nonzero")
    q = params.q
    xi, g_tilde = derive_couplings(q, params.g)
    # x+ + 1/x+ = s, with the xi + 1/xi combination in pole-free form.
    s = q**M * (
        q**M * (x_minus + 1 / x_minus)
        + (q**M - q**-M) * xi
        + 1j * qint(M, q) / g_tilde
    )
    disc = sqrt(s * s - 4)
    roots = ((s + disc) / 2, (s - disc) / 2)
    return roots


def make_kinematics(M: int, x_plus, x_minus, params: ModelParams) -> Kinematics:
    """Assemble a Kinematics record, validating shortening and centrals."""
    res = shortening_residual(x_plus, x_minus, M, params)
    if res > DEFAULT_TOL:
        raise KinematicsError(f"shortening residual {res:.3e} exceeds {DEFAULT_TOL:.1e}")
    U, V, z = _central_elements(M, x_plus, x_minus, params)
    return Kinematics(M=M, x_plus=x_plus, x_minus=x_minus, U=U, V=V, z=z, gamma=params.gamma)


def on_shell(M: int, x_minus, params: ModelParams, near=None) -> Kinematics:
    """The on-shell point at x-: the shortening root in x+ nearest ``near``,
    or the root of larger modulus when ``near`` is None."""
    roots = solve_shortening(x_minus, M, params)
    if near is None:
        x_plus = max(roots, key=abs)
    else:
        x_plus = min(roots, key=lambda r: abs(r - near))
    return make_kinematics(M, x_plus, x_minus, params)


def _theta(x, xi):
    """The function entering z: -(x + xi)(1 + 1/(xi x)) / (xi - 1/xi)."""
    return -((x + xi) * (1 + 1 / (xi * x))) / (xi - 1 / xi)


def _central_elements(M, x_plus, x_minus, params):
    q = params.q
    xi, _ = derive_couplings(q, params.g)
    u2_a = q**-M * (x_plus + xi) / (x_minus + xi)
    u2_b = q**M * (x_plus / x_minus) * (xi * x_minus + 1) / (xi * x_plus + 1)
    v2_a = q**-M * (xi * x_plus + 1) / (xi * x_minus + 1)
    v2_b = q**M * (x_plus / x_minus) * (x_minus + xi) / (x_plus + xi)
    for name, lhs, rhs in (("U^2", u2_a, u2_b), ("V^2", v2_a, v2_b)):
        res = rel_residual(lhs, rhs)
        if res > DEFAULT_TOL:
            raise KinematicsError(
                f"{name} expressions disagree (residual {res:.3e}); "
                "kinematics is off shell"
            )
    U = sqrt(u2_a)
    V = sqrt(v2_a)
    z = (1 - u2_a * v2_a) / (v2_a - u2_a)
    za = q**-M * _theta(x_plus, xi)
    zb = q**M * _theta(x_minus, xi)
    for other in (za, zb):
        res = rel_residual(z, other)
        if res > DEFAULT_TOL:
            raise KinematicsError(f"z expressions disagree (residual {res:.3e})")
    return U, V, z


def _labels(M, x_plus, x_minus, V, gamma, alpha, params: ModelParams):
    q = params.q
    xi, g_tilde = derive_couplings(q, params.g)
    g = params.g
    pref = sqrt(g / qint(M, q))
    a = pref * gamma
    b = pref * (alpha / gamma) * (x_minus - x_plus) / x_minus
    c = pref * (gamma / (alpha * V)) * (1j * g_tilde * q ** (M / 2)) / (g * (x_plus + xi))
    d = pref * (g_tilde * q ** (M / 2) * V / (1j * g * gamma)) * (x_plus - x_minus) / (
        xi * x_plus + 1
    )
    return a, b, c, d


def bulk_labels(kin: Kinematics, params: ModelParams):
    """Representation labels (a, b, c, d) in the x± parametrization."""
    if kin.gamma == 0:
        raise KinematicsError("gamma must be nonzero")
    return _labels(kin.M, kin.x_plus, kin.x_minus, kin.V, kin.gamma, params.alpha, params)


def affine_labels(kin: Kinematics, params: ModelParams):
    """Affine labels, obtained by the substitution
    V -> 1/V, x± -> 1/x±, gamma -> i*alpha_tilde*gamma/x+, alpha -> alpha*alpha_tilde^2.
    """
    at = params.alpha_tilde
    gamma_aff = 1j * at * kin.gamma / kin.x_plus
    return _labels(
        kin.M,
        1 / kin.x_plus,
        1 / kin.x_minus,
        1 / kin.V,
        gamma_aff,
        params.alpha * at * at,
        params,
    )


def reflect_kinematics(kin: Kinematics, params: ModelParams) -> Kinematics:
    """Reflected partner: x± -> -(x∓ + xi)/(xi x∓ + 1), U -> 1/U, V and z -> 1/z.

    The reflected state carries the swapped basis normalization: gamma_bar
    for an incoming state and gamma for a reflected one, making the map an
    involution.
    """
    xi, _ = derive_couplings(params.q, params.g)
    for x in (kin.x_plus, kin.x_minus):
        if abs(xi * x + 1) < 1e-12:
            raise PoleError("reflection map pole: xi*x + 1 = 0")
    xp = -(kin.x_minus + xi) / (xi * kin.x_minus + 1)
    xm = -(kin.x_plus + xi) / (xi * kin.x_plus + 1)
    gamma = params.gamma if kin.gamma == params.gamma_bar else params.gamma_bar
    return Kinematics(
        M=kin.M, x_plus=xp, x_minus=xm, U=1 / kin.U, V=kin.V, z=1 / kin.z, gamma=gamma
    )
