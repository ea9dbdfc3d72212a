"""Boundary reflection matrices: closed form, intertwiner re-derivation, checks.

The reflection matrix K acts on one bound-state leg (the boundary itself is a
singlet) and is block diagonal in the quantum number k: |k>1 and |k>2 mix,
|k>3 and |k>4 reflect diagonally with a common coefficient C_k.  Everything
here is built twice, once from the closed-form coefficients and once as the
null space of the boundary invariance conditions, and the two must agree up
to the overall normalization A_0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .coalgebra import (
    TWISTED_CHARGES,
    graded_permutation,
    twisted_boundary_charges,
)
from .kinematics import (
    Kinematics,
    KinematicsError,
    ModelParams,
    PoleError,
    bulk_labels,
    derive_couplings,
    make_kinematics,
    reflect_kinematics,
    solve_shortening,
)
from .numerics import qint
from .representation import GradedOperator, RepSpace, all_generators, build_basis
from .smatrix import IntertwinerError, leg_weights, solve_intertwiner, weight_nullspace

#: Charges preserved without twisting, imposed alongside the twisted set.
PRESERVED_CHARGES = ("E2", "F2", "E3", "F3", "K1", "K2", "K3", "K4")


@dataclass
class ReflectionMatrix:
    """Reflection coefficients and the assembled one-leg operator.

    A has length M+1, D length M+1 (zero at both ends), B and E length M-1
    (indexed k=1..M-1), C length M.  null_dim and singular_values are set
    only when the matrix came out of the intertwiner solver.
    """

    M: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    operator: GradedOperator
    kin: Kinematics
    gamma: complex
    gamma_bar: complex
    null_dim: int | None = None
    singular_values: np.ndarray | None = None


def c_coefficients(kin: Kinematics, params: ModelParams, c0=None) -> np.ndarray:
    """C_0..C_{M-1}: C_k = C_0 prod_{n<=k} (q^M - q^{2n}/z)/(q^M - q^{2n}z).

    The default C_0 = (reflected gamma)/gamma realizes the normalization
    A_0 = 1 for the incoming and reflected build alike.
    """
    q, z, M = params.q, kin.z, kin.M
    if c0 is None:
        c0 = reflect_kinematics(kin, params).gamma / kin.gamma
    out = [c0]
    for n in range(1, M):
        den = q**M - q ** (2 * n) * z
        if abs(den) < 1e-6:
            raise PoleError(f"C_{n} pole: q^M - q^{2 * n} z ~ 0")
        out.append(out[-1] * (q**M - q ** (2 * n) / z) / den)
    return np.array(out)


def _assemble(space: RepSpace, A, B, C, D, E) -> GradedOperator:
    M = space.M
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    f1, f2 = space.families[1], space.families[2]
    for k in range(M + 1):
        mat[f1[k], f1[k]] = A[k]
        if 1 <= k <= M - 1:
            mat[f2[k - 1], f1[k]] = D[k]
            mat[f2[k - 1], f2[k - 1]] = B[k - 1]
            mat[f1[k], f2[k - 1]] = E[k - 1]
    for fam in (3, 4):
        for k in range(M):
            i = space.families[fam][k]
            mat[i, i] = C[k]
    return GradedOperator(mat, 0, tuple(space.parities))


def _explicit_coefficients(kin, kin_ref, C, params):
    """The x-parametrized forms of A, B, D, E (independent cross-check)."""
    q, g, M = params.q, params.g, kin.M
    xi, gt = derive_couplings(q, g)
    xp, xm, V = kin.x_plus, kin.x_minus, kin.V
    gam, gam_b = kin.gamma, kin_ref.gamma
    alpha = params.alpha
    qm = qint(M, q)
    A = np.zeros(M + 1, dtype=complex)
    D = np.zeros(M + 1, dtype=complex)
    B = np.zeros(max(M - 1, 0), dtype=complex)
    E = np.zeros(max(M - 1, 0), dtype=complex)
    Cm1 = lambda k: C[k - 1] if k >= 1 else 0.0
    Cat = lambda k: C[k] if k <= M - 1 else 0.0
    for k in range(M + 1):
        N = (V * q ** (M / 2 - k) - q ** (k - M / 2) / V) / (q - 1 / q)
        A[k] = (
            gam * gt * q ** (M / 2) * (xm - xp)
            * (gt**2 * q**M * qint(k, q) * Cm1(k)
               - g**2 * qint(M - k, q) * Cat(k) * (xi + xp) ** 2)
            * V
        ) / (1j * gam_b * g**2 * qm * (xi + xp) ** 2 * (1 + xi * xp) * N)
        D[k] = (
            gam * gam_b * q ** (M / 2) * qint(k, q) * qint(M - k, q)
            * (gt**2 * Cm1(k) * xm + g**2 * Cat(k) * (1 + xi * xm) * (xi + xp))
        ) / (1j * alpha * gt * qm * xm * (xi + xp) * V * N)
        if 1 <= k <= M - 1:
            B[k - 1] = (
                1j * gam_b * q ** (-M / 2) * (xm - xp)
                * (gt**2 * qint(M - k, q) * Cm1(k) * xm**2
                   - g**2 * q**M * qint(k, q) * Cat(k) * (1 + xi * xm) ** 2)
            ) / (gam * gt * qm * xm**2 * (1 + xi * xm) * V * N)
            E[k - 1] = (
                1j * alpha * gt * q ** (M / 2) * (xm - xp) ** 2
                * (gt**2 * Cm1(k) * xm + g**2 * Cat(k) * (1 + xi * xm) * (xi + xp))
                * V
            ) / (gam * gam_b * g**2 * qm * xm * (1 + xi * xm) * (xi + xp) * (1 + xi * xp) * N)
    return A, B, D, E


def closed_form_kmatrix(
    kin: Kinematics,
    params: ModelParams,
    c_override=None,
    cross_check: bool = True,
    tol: float = nm.TOL_ALGEBRA,
) -> ReflectionMatrix:
    """K from the label-form coefficient solution.

    A_k = (C_{k-1}[k] b_ c + C_k[M-k] a d_) / N and companions, with
    N = [k] b_ c_ + [M-k] a_ d_ (underscore marks reflected labels).  The
    explicit x-parametrized forms are evaluated independently and compared
    entrywise unless cross_check is disabled.  c_override substitutes a
    different C array (used by the trivial-solution negative control).
    """
    M, q = kin.M, params.q
    kin_ref = reflect_kinematics(kin, params)
    a, b, c, d = bulk_labels(kin, params)
    a_, b_, c_, d_ = bulk_labels(kin_ref, params)
    C = np.asarray(c_override) if c_override is not None else c_coefficients(kin, params)
    Cm1 = lambda k: C[k - 1] if k >= 1 else 0.0
    Cat = lambda k: C[k] if k <= M - 1 else 0.0
    A = np.zeros(M + 1, dtype=complex)
    D = np.zeros(M + 1, dtype=complex)
    B = np.zeros(max(M - 1, 0), dtype=complex)
    E = np.zeros(max(M - 1, 0), dtype=complex)
    for k in range(M + 1):
        N = qint(k, q) * b_ * c_ + qint(M - k, q) * a_ * d_
        N_closed = (kin.V * q ** (M / 2 - k) - q ** (k - M / 2) / kin.V) / (q - 1 / q)
        if abs(N) < 1e-10:
            raise PoleError(f"boundary pole: N vanishes at k={k}")
        if cross_check and abs(N - N_closed) / max(1.0, abs(N)) > tol:
            raise KinematicsError("normalization factor closed form disagrees")
        A[k] = (Cm1(k) * qint(k, q) * b_ * c + Cat(k) * qint(M - k, q) * a * d_) / N
        D[k] = qint(k, q) * qint(M - k, q) * (Cat(k) * a * c_ - Cm1(k) * a_ * c) / N
        if 1 <= k <= M - 1:
            B[k - 1] = (Cat(k) * qint(k, q) * b * c_ + Cm1(k) * qint(M - k, q) * a_ * d) / N
            E[k - 1] = (Cat(k) * b * d_ - Cm1(k) * b_ * d) / N
    if cross_check and c_override is None:
        Ax, Bx, Dx, Ex = _explicit_coefficients(kin, kin_ref, C, params)
        for name, lhs, rhs in (("A", A, Ax), ("B", B, Bx), ("D", D, Dx), ("E", E, Ex)):
            res = nm.rel_residual(lhs, rhs)
            if res > tol:
                raise KinematicsError(
                    f"{name} coefficients disagree with explicit form ({res:.3e})"
                )
    space = build_basis(M)
    return ReflectionMatrix(
        M=M, A=A, B=B, C=C, D=D, E=E,
        operator=_assemble(space, A, B, C, D, E),
        kin=kin, gamma=kin.gamma, gamma_bar=kin_ref.gamma,
    )


def fundamental_kmatrix(kin: Kinematics, params: ModelParams) -> ReflectionMatrix:
    """M = 1: purely diagonal with A_0 = 1, A_1 = -1/(z U^2), C_0 = gamma_bar/gamma."""
    if kin.M != 1:
        raise ValueError("fundamental_kmatrix requires M = 1")
    kin_ref = reflect_kinematics(kin, params)
    c0 = kin_ref.gamma / kin.gamma
    A = np.array([1.0, -1.0 / (kin.z * kin.U**2)], dtype=complex)
    C = np.array([c0])
    space = build_basis(1)
    empty = np.zeros(0, dtype=complex)
    return ReflectionMatrix(
        M=1, A=A, B=empty, C=C, D=np.zeros(2, dtype=complex), E=empty,
        operator=_assemble(space, A, empty, C, np.zeros(2), empty),
        kin=kin, gamma=kin.gamma, gamma_bar=kin_ref.gamma,
    )


def _charge_pairs(kin: Kinematics, params: ModelParams, include_twisted: bool = True):
    """{name: (incoming matrix, reflected matrix)} for the boundary constraints."""
    space = build_basis(kin.M)
    kin_ref = reflect_kinematics(kin, params)
    ops = all_generators(kin, params, space)
    ops_ref = all_generators(kin_ref, params, space)
    pairs = {g: (ops[g].matrix, ops_ref[g].matrix) for g in PRESERVED_CHARGES}
    if include_twisted:
        tw = twisted_boundary_charges(ops, params)
        tw_ref = twisted_boundary_charges(ops_ref, params)
        pairs.update((g, (tw[g].matrix, tw_ref[g].matrix)) for g in TWISTED_CHARGES)
    return space, pairs


def solve_boundary_intertwiner(
    kin: Kinematics,
    params: ModelParams,
    include_twisted: bool = True,
    require_unique: bool = True,
) -> ReflectionMatrix:
    """K as the null space of J_in -> K pi(J) - pi_ref(J) K over all charges.

    With the twisted affine charges included the null space is one
    dimensional; dropping them (include_twisted=False) raises the dimension,
    which is the ablation probe for the coideal charges fixing K.  The
    reflection keeps V, so pi_ref(K_i) = pi(K_i) and K preserves the (H1, H3)
    weight, which is the support the shared solver imposes.
    """
    space, pairs = _charge_pairs(kin, params, include_twisted)
    basis, sv, null_dim = weight_nullspace(list(pairs.values()), leg_weights(space))
    if require_unique and null_dim != 1:
        raise IntertwinerError(f"boundary null-space dimension {null_dim}, expected 1")
    K = basis[-1]
    anchor = space.families[1][0]
    pivot = K[anchor, anchor]
    if abs(pivot) < 1e-12:
        raise IntertwinerError("A_0 element vanishes; resample kinematics")
    K = K / pivot
    M = kin.M
    f1, f2 = space.families[1], space.families[2]
    A = np.array([K[f1[k], f1[k]] for k in range(M + 1)])
    D = np.array([K[f2[k - 1], f1[k]] if 1 <= k <= M - 1 else 0.0 for k in range(M + 1)])
    B = np.array([K[f2[k - 1], f2[k - 1]] for k in range(1, M)])
    E = np.array([K[f1[k], f2[k - 1]] for k in range(1, M)])
    C = np.array([K[space.families[3][k], space.families[3][k]] for k in range(M)])
    kin_ref = reflect_kinematics(kin, params)
    return ReflectionMatrix(
        M=M, A=A, B=B, C=C, D=D, E=E,
        operator=GradedOperator(K, 0, tuple(space.parities)),
        kin=kin, gamma=kin.gamma, gamma_bar=kin_ref.gamma,
        null_dim=null_dim, singular_values=sv,
    )


def boundary_nullspace_dimension(
    kin: Kinematics, params: ModelParams, include_twisted: bool
) -> int:
    """Null-space dimension only (ablation probe helper)."""
    space, pairs = _charge_pairs(kin, params, include_twisted)
    return weight_nullspace(list(pairs.values()), leg_weights(space))[2]


def invariance_residual(
    K: ReflectionMatrix,
    params: ModelParams,
    charges=None,
    include_twisted: bool = True,
) -> dict:
    """Per-charge relative residual of K pi(J) - pi_ref(J) K.

    By default all preserved and twisted charges are checked; pass an
    explicit charge list (e.g. ["E1"]) for negative controls.
    """
    space, table = _charge_pairs(K.kin, params, include_twisted=True)
    if charges is None:
        charges = PRESERVED_CHARGES + (TWISTED_CHARGES if include_twisted else ())
    else:
        kin_ref = reflect_kinematics(K.kin, params)
        ops = all_generators(K.kin, params, space)
        ops_ref = all_generators(kin_ref, params, space)
        for name in charges:
            if name not in table:
                table[name] = (ops[name].matrix, ops_ref[name].matrix)
    Km = K.operator.matrix
    norm = max(1.0, float(np.linalg.norm(Km)))
    out = {}
    for name in charges:
        A, B = table[name]
        out[name] = float(np.linalg.norm(Km @ A - B @ Km)) / norm
    return out


def unitarity_residual(kin: Kinematics, params: ModelParams) -> float:
    """Relative residual of K(reflected) K(incoming) = Id.

    The reflected build swaps gamma and gamma_bar, matching the reflection
    map on the basis normalizations.
    """
    K_in = closed_form_kmatrix(kin, params).operator.matrix
    kin_ref = reflect_kinematics(kin, params)
    K_back = closed_form_kmatrix(kin_ref, params).operator.matrix
    prod = K_back @ K_in
    ident = np.eye(prod.shape[0])
    return float(np.linalg.norm(prod - ident) / max(1.0, np.linalg.norm(prod)))


def ck_symmetry_residual(kin: Kinematics, params: ModelParams) -> np.ndarray:
    """Residuals of z^k C_k = -+ z^{M-k-1} C_{M-k-1} (even/odd M), per k."""
    M = kin.M
    if M < 2:
        raise ValueError("symmetry check needs M >= 2")
    C = c_coefficients(kin, params)
    z = kin.z
    sign = -1.0 if M % 2 == 0 else 1.0
    ks = range(M // 2) if M % 2 == 0 else range((M - 1) // 2)
    out = []
    for k in ks:
        lhs = z**k * C[k]
        rhs = sign * z ** (M - k - 1) * C[M - k - 1]
        out.append(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return np.array(out)


def _embed_boundary(Km: np.ndarray, dims, leg: int) -> np.ndarray:
    if leg == 0:
        return np.kron(Km, np.eye(dims[1]))
    return np.kron(np.eye(dims[0]), Km)


def reflection_smatrices(kin1: Kinematics, kin2: Kinematics, params: ModelParams):
    """The four S matrices of the reflection equation, solved as intertwiners.

    Returns (S_{12}, S_{1 2r}, P21 S_{2 1r} P12, P21 S_{2r 1r} P12): the last
    two are conjugated by the graded permutations so that all four act on
    V1 (x) V2.  They do not depend on the K matrices, so one solve serves both
    the reflection equation and its trivial-C_k control.
    """
    s1, s2 = build_basis(kin1.M), build_basis(kin2.M)
    kin1r = reflect_kinematics(kin1, params)
    kin2r = reflect_kinematics(kin2, params)
    S12 = solve_intertwiner(kin1, kin2, params).matrix
    S_1_2r = solve_intertwiner(kin1, kin2r, params).matrix
    P12 = graded_permutation(s1, s2)
    P21 = graded_permutation(s2, s1)
    S_2_1r = P21 @ solve_intertwiner(kin2, kin1r, params).matrix @ P12
    S_2r_1r = P21 @ solve_intertwiner(kin2r, kin1r, params).matrix @ P12
    return S12, S_1_2r, S_2_1r, S_2r_1r


def boundary_ybe_residual(
    kin1: Kinematics,
    kin2: Kinematics,
    params: ModelParams,
    trivial_c: bool = False,
    smatrices=None,
) -> float:
    """Relative residual of K2 S_{2 1r} K1 S_{12} = S_{2r 1r} K1 S_{1 2r} K2.

    The four S variants come from `smatrices` (the tuple returned by
    reflection_smatrices for the same points), or are solved here when it
    is None; K matrices act on single legs.  With trivial_c=True the constant
    solution C_k = C_0 is substituted, which is expected to violate the
    identity for M >= 2 (negative control).
    """

    def kmat(kin):
        if trivial_c:
            c0 = reflect_kinematics(kin, params).gamma / kin.gamma
            C = np.full(kin.M, c0, dtype=complex)
            return closed_form_kmatrix(kin, params, c_override=C, cross_check=False)
        return closed_form_kmatrix(kin, params)

    Km1, Km2 = kmat(kin1).operator.matrix, kmat(kin2).operator.matrix
    dims = (Km1.shape[0], Km2.shape[0])
    K1 = _embed_boundary(Km1, dims, 0)
    K2 = _embed_boundary(Km2, dims, 1)
    if smatrices is None:
        smatrices = reflection_smatrices(kin1, kin2, params)
    S12, S_1_2r, S_2_1r, S_2r_1r = smatrices
    lhs = K2 @ S_2_1r @ K1 @ S12
    rhs = S_2r_1r @ K1 @ S_1_2r @ K2
    return float(
        np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
    )


def rational_u(x_plus, x_minus, M: int, g, eps: float = 1e-6):
    """u entering the rational C_k recursion, as the q -> 1 scaling limit
    of (z - 1)/(-2 i g (q - 1)), Richardson-extrapolated in q - 1.

    x+ is re-solved from the deformed shortening condition at each q, taking
    the root that tracks the rational x+.
    """
    vals = []
    for e in (eps, eps / 2):
        p = ModelParams(q=1 + e, g=g)
        roots = solve_shortening(x_minus, M, p)
        xp = min(roots, key=lambda r: abs(r - x_plus))
        kin = make_kinematics(M, xp, x_minus, p, check=False)
        vals.append((kin.z - 1) / (-2j * g * e))
    # u(eps) = u + c eps: eliminate the linear error term
    return 2 * vals[1] - vals[0]


def rational_shortening_residual(x_plus, x_minus, M: int, g) -> float:
    lhs = x_plus + 1 / x_plus - x_minus - 1 / x_minus
    rhs = 1j * M / g
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def rational_limit_kmatrix(
    x_plus,
    x_minus,
    g,
    M: int,
    gamma=1.0,
    gamma_bar=1.0,
    alpha=1j,
    u=None,
    tol: float = nm.TOL_ALGEBRA,
) -> ReflectionMatrix:
    """Rational (q -> 1) reflection coefficients.

    C_k = (2igu - M + 2k)/(-2igu - M + 2k) C_{k-1} with C_0 = gamma_bar/gamma,
    N = k + (M - k) x- x+.  u defaults to the numeric scaling limit from
    rational_u; gamma = gamma_bar = sqrt(i(x- - x+)) reproduces the standard
    rational normalization.
    """
    if rational_shortening_residual(x_plus, x_minus, M, g) > tol:
        raise KinematicsError("x pair violates the rational shortening condition")
    if u is None:
        u = rational_u(x_plus, x_minus, M, g)
    C = [gamma_bar / gamma]
    for k in range(1, M):
        den = -2j * g * u - M + 2 * k
        if abs(den) < 1e-10:
            raise PoleError(f"rational C_{k} pole")
        C.append(C[-1] * (2j * g * u - M + 2 * k) / den)
    C = np.array(C)
    Cm1 = lambda k: C[k - 1] if k >= 1 else 0.0
    Cat = lambda k: C[k] if k <= M - 1 else 0.0
    A = np.zeros(M + 1, dtype=complex)
    D = np.zeros(M + 1, dtype=complex)
    B = np.zeros(max(M - 1, 0), dtype=complex)
    E = np.zeros(max(M - 1, 0), dtype=complex)
    for k in range(M + 1):
        N = k + (M - k) * x_minus * x_plus
        if abs(N) < 1e-10:
            raise PoleError(f"rational boundary pole at k={k}")
        A[k] = (gamma / gamma_bar) * x_minus / (x_plus * N) * (
            (M - k) * Cat(k) * x_plus**2 - k * Cm1(k)
        )
        D[k] = (gamma * gamma_bar / alpha) * k * (M - k) * (
            Cat(k) * x_plus + Cm1(k) * x_minus
        ) / (N * (x_plus - x_minus))
        if 1 <= k <= M - 1:
            B[k - 1] = (gamma_bar / gamma) * x_plus / (x_minus * N) * (
                (M - k) * Cm1(k) * x_minus**2 - k * Cat(k)
            )
            E[k - 1] = (alpha / (gamma * gamma_bar)) * (x_minus - x_plus) / N * (
                Cat(k) * x_plus + Cm1(k) * x_minus
            )
    space = build_basis(M)
    kin = Kinematics(
        M=M, x_plus=x_plus, x_minus=x_minus,
        U=nm.sqrt(x_plus / x_minus), V=1.0, z=1.0, gamma=gamma,
    )
    return ReflectionMatrix(
        M=M, A=A, B=B, C=C, D=D, E=E,
        operator=_assemble(space, A, B, C, D, E),
        kin=kin, gamma=gamma, gamma_bar=gamma_bar,
    )


def compare_kmatrices(K1: ReflectionMatrix, K2: ReflectionMatrix) -> float:
    """Entrywise relative difference after aligning on the A_0 element."""
    m1 = K1.operator.matrix
    m2 = K2.operator.matrix
    anchor = build_basis(K1.M).families[1][0]
    if abs(m2[anchor, anchor]) < 1e-14:
        raise ValueError("cannot align: A_0 element vanishes")
    m2 = m2 * (m1[anchor, anchor] / m2[anchor, anchor])
    return nm.rel_residual(m1, m2)
