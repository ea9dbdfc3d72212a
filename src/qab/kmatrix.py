"""Boundary reflection matrices: closed form, intertwiner re-derivation, checks.

The reflection matrix K acts on one bound-state leg (the boundary itself is a
singlet) and is block diagonal in the quantum number k: |k>1 and |k>2 mix,
|k>3 and |k>4 reflect diagonally with a common coefficient C_k.  Everything
here is built twice, once from the closed-form coefficients and once as the
null space of the boundary invariance conditions, and the two must agree up
to the overall normalization A_0 = 1.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import numerics as nm
from .coalgebra import TWISTED_CHARGES, Leg, twisted_boundary_charges
from .kinematics import (
    Kinematics,
    KinematicsError,
    ModelParams,
    PoleError,
    bulk_labels,
    derive_couplings,
    on_shell,
    reflect_kinematics,
)
from .numerics import qint
from .representation import RepSpace, all_generators, build_basis
from .smatrix import (
    VerificationError,
    _on_right,
    commutant_nullspace,
    unique_intertwiner,
)

#: Charges preserved without twisting.  They alone are the ablation set: from
#: M = 2 on they leave the null space more than one-dimensional.
PRESERVED_CHARGES = ("E2", "F2", "E3", "F3", "K1", "K2", "K3", "K4")
#: Every charge of the boundary coideal algebra; together they fix K.
BOUNDARY_CHARGES = PRESERVED_CHARGES + TWISTED_CHARGES


def _c_recursion(c0, M: int, ratio, tol: float) -> np.ndarray:
    """C_0..C_{M-1} with C_n = C_{n-1} num / den, (num, den) = ratio(n).

    The q-deformed and the rational C_k are both this product; a ratio
    denominator below tol is a pole of the recursion.
    """
    C = [c0]
    for n in range(1, M):
        num, den = ratio(n)
        if abs(den) < tol:
            raise PoleError(f"C_{n} pole: ratio denominator ~ 0")
        C.append(C[-1] * num / den)
    return np.array(C)


def c_coefficients(kin: Kinematics, params: ModelParams) -> np.ndarray:
    """C_0..C_{M-1}: C_k = C_0 prod_{n<=k} (q^M - q^{2n}/z)/(q^M - q^{2n}z).

    C_0 = (reflected gamma)/gamma realizes the normalization A_0 = 1 for the
    incoming and reflected build alike.
    """
    q, z, M = params.q, kin.z, kin.M
    return _c_recursion(
        reflect_kinematics(kin, params).gamma / kin.gamma, M,
        lambda n: (q**M - q ** (2 * n) / z, q**M - q ** (2 * n) * z), 1e-6,
    )


def _over_k(M: int, C):
    """k = 0..M beside the padded C_{k-1} and C_k (zero outside 0..M-1).

    The arrays are object arrays of numpy scalars, so the coefficient
    formulas below run entrywise in numpy's scalar arithmetic: no SIMD loop
    with fused multiply-adds, whose rounding depends on the host CPU and
    which the rational-limit rate check would amplify a thousandfold.
    """
    k = np.empty(M + 1, dtype=object)
    k[:] = list(np.arange(M + 1))
    return k, np.array([0.0, *C], dtype=object), np.array([*C, 0.0], dtype=object)


def _check_poles(N, what: str) -> None:
    small = np.flatnonzero(np.abs(N.astype(complex)) < 1e-10)
    if small.size:
        raise PoleError(f"{what} pole: N vanishes at k={small[0]}")


def _k_entries(space: RepSpace):
    """(coefficient, rows, cols) for the entries of K holding each coefficient.

    A_k sits at (|k>1, |k>1), k = 0..M; B_k at (|k>2, |k>2), D_k at
    (|k>2, |k>1) and E_k at (|k>1, |k>2), k = 1..M-1; C_k at (|k>3, |k>3) and
    (|k>4, |k>4), k = 0..M-1.  Every other entry of K is zero.
    """
    f1, f2, f3, f4 = (np.asarray(space.families[i], dtype=int) for i in (1, 2, 3, 4))
    return (
        ("A", f1, f1), ("B", f2, f2), ("C", f3, f3), ("C", f4, f4),
        ("D", f2, f1[1:-1]), ("E", f1[1:-1], f2),
    )


def _assemble(M: int, A, B, C, D, E) -> np.ndarray:
    """The K of bound-state number M holding these coefficients (_k_entries)."""
    space = build_basis(M)
    coeffs = {"A": A, "B": B, "C": C, "D": D, "E": E}
    K = np.zeros((space.dim, space.dim), dtype=complex)
    for name, rows, cols in _k_entries(space):
        K[rows, cols] = coeffs[name]
    return K


def _explicit_coefficients(kin, kin_ref, C, params, N):
    """The x-parametrized forms of A, B, D, E (independent cross-check).

    N is the x-form of the normalization, (V q^{M/2-k} - q^{k-M/2}/V)/(q - 1/q).
    """
    q, g, M = params.q, params.g, kin.M
    xi, gt = derive_couplings(q, g)
    xp, xm, V = kin.x_plus, kin.x_minus, kin.V
    gam, gam_b = kin.gamma, kin_ref.gamma
    alpha = params.alpha
    qm = qint(M, q)
    k, Cm1, Cat = _over_k(M, C)
    qk, qMk = qint(k, q), qint(M - k, q)
    A = (
        gam * gt * q ** (M / 2) * (xm - xp)
        * (gt**2 * q**M * qk * Cm1 - g**2 * qMk * Cat * (xi + xp) ** 2)
        * V
    ) / (1j * gam_b * g**2 * qm * (xi + xp) ** 2 * (1 + xi * xp) * N)
    D = (
        gam * gam_b * q ** (M / 2) * qk * qMk
        * (gt**2 * Cm1 * xm + g**2 * Cat * (1 + xi * xm) * (xi + xp))
    ) / (1j * alpha * gt * qm * xm * (xi + xp) * V * N)
    B = (
        1j * gam_b * q ** (-M / 2) * (xm - xp)
        * (gt**2 * qMk * Cm1 * xm**2 - g**2 * q**M * qk * Cat * (1 + xi * xm) ** 2)
    ) / (gam * gt * qm * xm**2 * (1 + xi * xm) * V * N)
    E = (
        1j * alpha * gt * q ** (M / 2) * (xm - xp) ** 2
        * (gt**2 * Cm1 * xm + g**2 * Cat * (1 + xi * xm) * (xi + xp))
        * V
    ) / (gam * gam_b * g**2 * qm * xm * (1 + xi * xm) * (xi + xp) * (1 + xi * xp) * N)
    return tuple(np.asarray(x, dtype=complex) for x in (A, B[1:M], D[1:M], E[1:M]))


def closed_form_kmatrix(kin: Kinematics, params: ModelParams, c_override=None) -> np.ndarray:
    """K from the label-form coefficient solution.

    A_k = (C_{k-1}[k] b_ c + C_k[M-k] a d_) / N and companions, with
    N = [k] b_ c_ + [M-k] a_ d_ (underscore marks reflected labels), all
    evaluated at once over k = 0..M.  N is cross-checked against its x-form,
    and the explicit x-parametrized forms of A, B, D, E are evaluated
    independently and compared entrywise; either disagreement raises
    VerificationError.  c_override substitutes a different C array (used by
    the trivial-solution negative control); the explicit forms assume the
    true C_k, so that comparison is skipped then.
    """
    M, q = kin.M, params.q
    kin_ref = reflect_kinematics(kin, params)
    a, b, c, d = bulk_labels(kin, params)
    a_, b_, c_, d_ = bulk_labels(kin_ref, params)
    C = np.asarray(c_override) if c_override is not None else c_coefficients(kin, params)
    k, Cm1, Cat = _over_k(M, C)
    qk, qMk = qint(k, q), qint(M - k, q)
    N = qk * b_ * c_ + qMk * a_ * d_
    _check_poles(N, "boundary")
    A, B, D, E = (np.asarray(x, dtype=complex) for x in (
        (Cm1 * qk * b_ * c + Cat * qMk * a * d_) / N,
        ((Cat * qk * b * c_ + Cm1 * qMk * a_ * d) / N)[1:M],
        (qk * qMk * (Cat * a * c_ - Cm1 * a_ * c) / N)[1:M],
        ((Cat * b * d_ - Cm1 * b_ * d) / N)[1:M],
    ))
    tol = nm.TOL_ALGEBRA
    N_x = (kin.V * q ** (M / 2 - k) - q ** (k - M / 2) / kin.V) / (q - 1 / q)
    N_c = N.astype(complex)
    if np.any(np.abs(N_c - N_x.astype(complex)) / np.maximum(1.0, np.abs(N_c)) > tol):
        raise VerificationError("normalization factor closed form disagrees")
    if c_override is None:
        explicit = _explicit_coefficients(kin, kin_ref, C, params, N_x)
        for name, lhs, rhs in zip("ABDE", (A, B, D, E), explicit):
            res = nm.rel_residual(lhs, rhs)
            if res > tol:
                raise VerificationError(
                    f"{name} coefficients disagree with explicit form ({res:.3e})"
                )
    return _assemble(M, A, B, C, D, E)


def boundary_system(kin: Kinematics, params: ModelParams):
    """(pairs, weights) of K pi(J) = pi_ref(J) K over BOUNDARY_CHARGES, as
    weight_nullspace and pair_residuals take them.

    The reflection keeps V, so pi_ref(K_i) = pi(K_i) and K preserves the
    (H1, H3) weight, which is the support the shared solver imposes.  The
    leading len(PRESERVED_CHARGES) pairs alone leave the null space more
    than one-dimensional from M = 2 on (the ablation).
    """
    space = build_basis(kin.M)
    ops = all_generators(kin, params, space)
    ops_ref = all_generators(reflect_kinematics(kin, params), params, space)
    ops.update(twisted_boundary_charges(ops, params))
    ops_ref.update(twisted_boundary_charges(ops_ref, params))
    return [(ops[n].matrix, ops_ref[n].matrix) for n in BOUNDARY_CHARGES], space.weights


def unitarity_residual(kin: Kinematics, params: ModelParams) -> float:
    """Relative residual of K(reflected) K(incoming) = Id.

    The reflected build swaps gamma and gamma_bar, matching the reflection
    map on the basis normalizations.
    """
    K_in = closed_form_kmatrix(kin, params)
    K_back = closed_form_kmatrix(reflect_kinematics(kin, params), params)
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
    # (M - 1) // 2 pairs for odd M, the middle C_k is free
    return np.array([nm.rel_residual(z**k * C[k], sign * z ** (M - k - 1) * C[M - k - 1])
                     for k in range(M // 2)])


def reflection_smatrices(kin1: Kinematics, kin2: Kinematics, params: ModelParams):
    """The four braided S-matrices (Ř(1,2), Ř(1,2r), Ř(2,1r), Ř(2r,1r)) of
    the reflection equation, solved as intertwiners on the Legs of the two
    points and of their reflections, each built once.  They do not depend on
    the K matrices, so one solve serves both the reflection equation and its
    trivial-C_k control.
    """
    kins = (kin1, kin2, *(reflect_kinematics(k, params) for k in (kin1, kin2)))
    leg1, leg2, leg1r, leg2r = (Leg(kin, params) for kin in kins)
    pairs = ((leg1, leg2), (leg1, leg2r), (leg2, leg1r), (leg2r, leg1r))
    return tuple(unique_intertwiner(commutant_nullspace(a, b, params.q)) for a, b in pairs)


def boundary_ybe_residual(K1: np.ndarray, K2: np.ndarray, smatrices) -> float:
    """Relative residual of K2 Ř(2,1r) K1' Ř(1,2) = Ř(2r,1r) K1' Ř(1,2r) K2
    for the one-leg K matrices K1 and K2 of the two points.

    The four Ř come from `smatrices`, the tuple returned by
    reflection_smatrices for the same points.  K2 and K1' act on the second
    leg of V1 (x) V2 and of V2 (x) V1, by reshape: no leg is flipped and
    neither K is embedded in the two-leg space.
    """
    R12, R_1_2r, R_2_1r, R_2r_1r = smatrices
    lhs = _on_right(K2, R_2_1r @ _on_right(K1, R12))
    rhs = R_2r_1r @ _on_right(K1, R_1_2r @ _on_right(K2, np.eye(len(R12))))
    return nm.rel_residual(lhs, rhs)


def rational_shortening_residual(x_plus, x_minus, M: int, g) -> float:
    lhs = x_plus + 1 / x_plus - x_minus - 1 / x_minus
    return nm.rel_residual(lhs, 1j * M / g)


def rational_limit_kmatrix(
    x_plus,
    x_minus,
    g,
    M: int,
    gamma=1.0,
    gamma_bar=1.0,
    alpha=1j,
) -> np.ndarray:
    """K from the rational (q -> 1) reflection coefficients.

    C_k = (2igu - M + 2k)/(-2igu - M + 2k) C_{k-1} with C_0 = gamma_bar/gamma,
    N = k + (M - k) x- x+, and u = x+ + 1/x+ - iM/(2g), the q -> 1 limit of
    (z - 1)/(-2ig(q - 1)); gamma = gamma_bar = sqrt(i(x- - x+)) reproduces the
    standard rational normalization.
    """
    if rational_shortening_residual(x_plus, x_minus, M, g) > nm.TOL_ALGEBRA:
        raise KinematicsError("x pair violates the rational shortening condition")
    u = x_plus + 1 / x_plus - 1j * M / (2 * g)
    C = _c_recursion(
        gamma_bar / gamma, M,
        lambda k: (2j * g * u - M + 2 * k, -2j * g * u - M + 2 * k), 1e-10,
    )
    k, Cm1, Cat = _over_k(M, C)
    N = k + (M - k) * x_minus * x_plus
    _check_poles(N, "rational boundary")
    A, B, D, E = (np.asarray(x, dtype=complex) for x in (
        (gamma / gamma_bar) * x_minus / (x_plus * N)
        * ((M - k) * Cat * x_plus**2 - k * Cm1),
        ((gamma_bar / gamma) * x_plus / (x_minus * N)
         * ((M - k) * Cm1 * x_minus**2 - k * Cat))[1:M],
        ((gamma * gamma_bar / alpha) * k * (M - k)
         * (Cat * x_plus + Cm1 * x_minus) / (N * (x_plus - x_minus)))[1:M],
        ((alpha / (gamma * gamma_bar)) * (x_minus - x_plus) / N
         * (Cat * x_plus + Cm1 * x_minus))[1:M],
    ))
    return _assemble(M, A, B, C, D, E)


#: The q = 1 + eps points at which the rational limit is compared.
RATIONAL_LIMIT_EPS = (1e-3, 1e-4)


def rational_limit_errors(x_minus, M: int, params: ModelParams) -> list:
    """Entrywise relative error of the closed-form K at q = 1 + eps against
    its rational limit, the largest over the entries of K (each a coefficient
    A-E or zero), for each eps in RATIONAL_LIMIT_EPS.

    x+ is the rational shortening partner of x-, both states are normalized
    by gamma = gamma_bar = sqrt(i(x- - x+)), and at each q the deformed x+
    is the shortening root nearest the rational one.
    """
    g = params.g
    s = x_minus + 1 / x_minus + 1j * M / g
    xp = (s + np.sqrt(complex(s * s - 4))) / 2
    gam = nm.sqrt(1j * (x_minus - xp))
    Kr = rational_limit_kmatrix(
        xp, x_minus, g, M, gamma=gam, gamma_bar=gam, alpha=params.alpha,
    )
    errs = []
    for eps in RATIONAL_LIMIT_EPS:
        p_eps = replace(params, q=1 + eps, gamma=gam, gamma_bar=gam)
        Kq = closed_form_kmatrix(on_shell(M, x_minus, p_eps, near=xp), p_eps)
        errs.append((np.abs(Kq - Kr) / np.maximum(1.0, np.abs(Kr))).max())
    return errs


def compare_kmatrices(K1: np.ndarray, K2: np.ndarray) -> float:
    """Entrywise relative difference after aligning on the A_0 element, the
    [0, 0] entry (basis state |0,0,0,M>)."""
    if abs(K2[0, 0]) < 1e-14:
        raise ValueError("cannot align: A_0 element vanishes")
    return nm.rel_residual(K1, K2 * (K1[0, 0] / K2[0, 0]))
