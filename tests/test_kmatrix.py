"""Reflection matrices: closed form vs intertwiner, invariance, unitarity,
the reflection equation, coefficient symmetries and the rational limit."""

import cmath

import numpy as np
import pytest

from qab.kinematics import (
    ModelParams,
    make_kinematics,
    on_shell,
    reflect_kinematics,
    solve_shortening,
)
from qab.kmatrix import (
    PRESERVED_CHARGES,
    boundary_system,
    boundary_ybe_residual,
    c_coefficients,
    ck_symmetry_residual,
    closed_form_kmatrix,
    compare_kmatrices,
    rational_limit_kmatrix,
    rational_shortening_residual,
    reflection_smatrices,
    unitarity_residual,
)
from qab.numerics import TOL_ALGEBRA, TOL_COMPOSITE, TOL_INTERTWINER, rel_residual
from qab.representation import all_generators, build_basis
from qab.smatrix import NULL_GAP, pair_residuals, spectral_gap, weight_nullspace

from conftest import boundary_k, constant_c_kmatrix, graded_permutation, k_coefficients, kin_at


@pytest.fixture(scope="module")
def gpoints(params_gammas):
    return {
        M: kin_at(M, xm, params_gammas)
        for M, xm in [(1, 1.3 + 0.8j), (2, 0.9 - 1.1j), (3, 1.1 + 0.9j), (4, 1.4 + 0.6j)]
    }


def test_c_coefficient_ratio(gpoints, params_gammas):
    kin = gpoints[3]
    q, z, M = params_gammas.q, kin.z, 3
    C = c_coefficients(kin, params_gammas)
    for k in (1, 2):
        want = (q**M - q ** (2 * k) / z) / (q**M - q ** (2 * k) * z)
        assert abs(C[k] / C[k - 1] - want) < 1e-12
    assert abs(C[0] - params_gammas.gamma_bar / params_gammas.gamma) < 1e-14


def test_c_ratios_match_intertwiner_solution(gpoints, params_gammas):
    # null-space oracle: the solver's fermionic diagonal reproduces the ratios
    kin = gpoints[3]
    C = c_coefficients(kin, params_gammas)
    Cs = k_coefficients(boundary_k(kin, params_gammas))["C"]
    for k in (1, 2):
        assert abs(Cs[k] / Cs[k - 1] - C[k] / C[k - 1]) < 1e-10


@pytest.mark.parametrize("M", [1, 2, 3])
def test_closed_form_boundary_values(M, gpoints, params_gammas):
    kin = gpoints[M]
    K = k_coefficients(closed_form_kmatrix(kin, params_gammas))
    assert abs(K["A"][0] - 1) < 1e-12
    # A_M = -gamma C_{M-1} / (z U^2 gamma_bar)
    gamma_bar = reflect_kinematics(kin, params_gammas).gamma
    want = -kin.gamma * K["C"][M - 1] / (kin.z * kin.U**2 * gamma_bar)
    assert abs(K["A"][M] - want) < 1e-11


@pytest.mark.parametrize("M", range(1, 9))
def test_k_layout_round_trip(M, params_gammas):
    # family 4 repeats C, and no entry of K lies outside the coefficient layout
    K = closed_form_kmatrix(kin_at(M, 1.3 + 0.8j, params_gammas), params_gammas)
    space = build_basis(M)
    coeffs = k_coefficients(K)
    rebuilt = np.zeros_like(K)
    f1, f2 = space.families[1], space.families[2]
    rebuilt[f1, f1] = coeffs["A"]
    rebuilt[f2, f2] = coeffs["B"]
    rebuilt[f2, f1[1:-1]] = coeffs["D"]
    rebuilt[f1[1:-1], f2] = coeffs["E"]
    for fam in (3, 4):
        rebuilt[space.families[fam], space.families[fam]] = coeffs["C"]
    assert np.array_equal(rebuilt, K)


def _label_form_by_loop(kin, params, C):
    """Reference: the label-form coefficients one k at a time."""
    from qab.kinematics import bulk_labels
    from qab.numerics import qint

    M, q = kin.M, params.q
    a, b, c, d = bulk_labels(kin, params)
    a_, b_, c_, d_ = bulk_labels(reflect_kinematics(kin, params), params)
    A, D, B, E = [], [], [], []
    for k in range(M + 1):
        Cm1 = C[k - 1] if k >= 1 else 0.0
        Cat = C[k] if k <= M - 1 else 0.0
        N = qint(k, q) * b_ * c_ + qint(M - k, q) * a_ * d_
        A.append((Cm1 * qint(k, q) * b_ * c + Cat * qint(M - k, q) * a * d_) / N)
        if 1 <= k <= M - 1:
            D.append(qint(k, q) * qint(M - k, q) * (Cat * a * c_ - Cm1 * a_ * c) / N)
            B.append((Cat * qint(k, q) * b * c_ + Cm1 * qint(M - k, q) * a_ * d) / N)
            E.append((Cat * b * d_ - Cm1 * b_ * d) / N)
    return A, B, D, E


@pytest.mark.parametrize("M", [1, 2, 3, 5])
def test_closed_form_equals_per_k_loop(M, params_gammas):
    # the arithmetic per entry is unchanged, so the results are bit-identical
    kin = kin_at(M, 1.3 + 0.8j, params_gammas)
    K = k_coefficients(closed_form_kmatrix(kin, params_gammas))
    want = _label_form_by_loop(kin, params_gammas, K["C"])
    for name, ref in zip("ABDE", want):
        assert np.array_equal(K[name], np.array(ref, dtype=complex)), name


def test_label_and_explicit_forms_cross_checked(gpoints, params_gammas):
    # closed_form_kmatrix raises if Eq-level and x-level coefficients differ
    # by more than TOL_ALGEBRA = 1e-10; reaching here means the two
    # independent evaluations agreed
    closed_form_kmatrix(gpoints[3], params_gammas)


def test_fundamental_matches_general_form(gpoints, params_gammas):
    # M = 1: A_1/A_0 = -1/(z U^2)
    kin = gpoints[1]
    A = k_coefficients(closed_form_kmatrix(kin, params_gammas))["A"]
    assert abs(A[1] / A[0] + 1 / (kin.z * kin.U**2)) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 3])
def test_intertwiner_matches_closed_form(M, gpoints, params_gammas):
    K = closed_form_kmatrix(gpoints[M], params_gammas)
    Ks = boundary_k(gpoints[M], params_gammas)
    assert spectral_gap(weight_nullspace(*boundary_system(gpoints[M], params_gammas))[1]) <= NULL_GAP
    assert Ks[0, 0] == 1
    assert compare_kmatrices(K, Ks) < TOL_INTERTWINER


@pytest.mark.parametrize("M", [2, 3])
def test_twisted_charge_ablation(M, gpoints, params_gammas):
    pairs, weights = boundary_system(gpoints[M], params_gammas)
    sv = weight_nullspace(pairs[:len(PRESERVED_CHARGES)], weights)[1]
    assert spectral_gap(sv) > NULL_GAP
    sv_full = weight_nullspace(pairs, weights)[1]
    assert spectral_gap(sv_full) <= NULL_GAP


@pytest.mark.parametrize("M", [1, 2, 3])
def test_invariance_under_all_boundary_charges(M, gpoints, params_gammas):
    K = closed_form_kmatrix(gpoints[M], params_gammas)
    res = pair_residuals(K, boundary_system(gpoints[M], params_gammas)[0])
    assert max(res) < TOL_INTERTWINER, res


def _generator_pairs(kin, params, names):
    """(pi(J), pi_ref(J)) of the named generators at a point and its reflection."""
    space = build_basis(kin.M)
    ops, ops_ref = (all_generators(k, params, space) for k in (kin, reflect_kinematics(kin, params)))
    return [(ops[n].matrix, ops_ref[n].matrix) for n in names]


def test_cartan_charges_exactly_block_diagonal(gpoints, params_gammas):
    K = closed_form_kmatrix(gpoints[2], params_gammas)
    pairs = _generator_pairs(gpoints[2], params_gammas, ["K1", "K2", "K3", "K4"])
    assert max(pair_residuals(K, pairs)) < 1e-14


def test_broken_charge_negative_control(gpoints, params_gammas):
    K = closed_form_kmatrix(gpoints[2], params_gammas)
    [res] = pair_residuals(K, _generator_pairs(gpoints[2], params_gammas, ["E1"]))
    assert res > 0.1


@pytest.mark.parametrize("M", [1, 2, 3])
def test_unitarity(M, gpoints, params_gammas):
    assert unitarity_residual(gpoints[M], params_gammas) < TOL_INTERTWINER


def test_fermionic_unitarity_telescopes(gpoints, params_gammas):
    # C_k(p) C_k(-p) = 1: the Ck2 product telescopes under z -> 1/z
    kin = gpoints[3]
    C = c_coefficients(kin, params_gammas)
    Cr = c_coefficients(reflect_kinematics(kin, params_gammas), params_gammas)
    for k in range(3):
        assert abs(C[k] * Cr[k] - 1) < 1e-12


@pytest.mark.parametrize("M", [2, 3, 4])
def test_ck_covariance(M, gpoints, params_gammas):
    res = ck_symmetry_residual(gpoints[M], params_gammas)
    assert res.max() < TOL_ALGEBRA


def test_ck_covariance_explicit_m2(gpoints, params_gammas):
    kin = gpoints[2]
    C = c_coefficients(kin, params_gammas)
    # M = 2, k = 0: z^0 C_0 = -z C_1
    assert abs(C[0] + kin.z * C[1]) < 1e-12


@pytest.mark.parametrize(
    "pair", [((1, 1.3 + 0.8j), (1, 0.9 - 1.1j)),
             ((2, 0.9 - 1.1j), (1, 1.3 + 0.8j)),
             ((1, 1.3 + 0.8j), (2, 1.4 + 0.5j)),
             ((2, 0.9 - 1.1j), (2, 1.4 + 0.5j))],
    ids=["11", "21", "12", "22"],
)
def test_reflection_equation(pair, params_gammas):
    kin1 = kin_at(pair[0][0], pair[0][1], params_gammas)
    kin2 = kin_at(pair[1][0], pair[1][1], params_gammas)
    smats = reflection_smatrices(kin1, kin2, params_gammas)
    K1, K2 = (closed_form_kmatrix(k, params_gammas) for k in (kin1, kin2))
    assert boundary_ybe_residual(K1, K2, smats) < TOL_COMPOSITE


def test_trivial_ck_fails_reflection_equation(params_gammas):
    kin1 = kin_at(2, 0.9 - 1.1j, params_gammas)
    kin2 = kin_at(1, 1.3 + 0.8j, params_gammas)
    smats = reflection_smatrices(kin1, kin2, params_gammas)
    T1, T2 = (constant_c_kmatrix(k, params_gammas) for k in (kin1, kin2))
    assert boundary_ybe_residual(T1, T2, smats) > 1e-2


def _s_form_bybe_residual(Km1, Km2, smats):
    """K2 S_{2 1r} K1 S_{12} = S_{2r 1r} K1 S_{1 2r} K2 on V1 (x) V2, with
    S = P_21 Ř, the two S of V2 (x) V1 carried over by the graded flip and
    both K embedded densely."""
    s1, s2 = build_basis(len(Km1) // 4), build_basis(len(Km2) // 4)
    P12, P21 = graded_permutation(s1, s2), graded_permutation(s2, s1)
    K1 = np.kron(Km1, np.eye(s2.dim))
    K2 = np.kron(np.eye(s1.dim), Km2)
    R12, R_1_2r, R_2_1r, R_2r_1r = smats
    S12, S_1_2r = P21 @ R12, P21 @ R_1_2r
    S_2_1r, S_2r_1r = P21 @ (P12 @ R_2_1r) @ P12, P21 @ (P12 @ R_2r_1r) @ P12
    return rel_residual(K2 @ S_2_1r @ K1 @ S12, S_2r_1r @ K1 @ S_1_2r @ K2)


@pytest.mark.parametrize(
    "Ms", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)], ids=str
)
def test_braided_reflection_equation_matches_s_form(Ms, params_gammas):
    # the leg-wise braided residual equals the S-form one built with the
    # graded flip and dense embeddings, for the reflection equation and for
    # its trivial-C_k control; unequal legs would expose a wrong reshape
    kins = (kin_at(Ms[0], 0.9 - 1.1j, params_gammas), kin_at(Ms[1], 1.4 + 0.5j, params_gammas))
    smats = reflection_smatrices(*kins, params_gammas)
    K1, K2 = (closed_form_kmatrix(k, params_gammas) for k in kins)
    res = boundary_ybe_residual(K1, K2, smats)
    assert abs(res - _s_form_bybe_residual(K1, K2, smats)) < 1e-13
    if max(Ms) >= 2:
        T1, T2 = (constant_c_kmatrix(k, params_gammas) for k in kins)
        ctl = boundary_ybe_residual(T1, T2, smats)
        ref = _s_form_bybe_residual(T1, T2, smats)
        assert abs(ctl - ref) < 1e-12 * ref


def _rational_pair(xm, M, g):
    s = xm + 1 / xm + 1j * M / g
    return (s + cmath.sqrt(s * s - 4)) / 2, xm


def test_rational_u_matches_closed_form():
    # u = x+ + 1/x+ - iM/(2g), which rational_limit_kmatrix uses, is the
    # scaling limit of (z - 1)/(-2ig(q - 1)): O(q - 1) off at q - 1 = eps,
    # and within 1e-6 once the linear term is eliminated with q - 1 = eps/2
    g, M, eps = 0.4, 2, 1e-6
    xp, xm = _rational_pair(1.2 - 0.7j, M, g)
    want = xp + 1 / xp - 1j * M / (2 * g)
    u = []
    for e in (eps, eps / 2):
        kin = on_shell(M, xm, ModelParams(q=1 + e, g=g), near=xp)
        u.append((kin.z - 1) / (-2j * g * e))
    assert abs(u[0] - want) < 10 * eps
    assert abs(2 * u[1] - u[0] - want) < 1e-6
    assert rational_shortening_residual(xp, xm, M, g) < 1e-12


def test_rational_coefficients_limit_of_deformed():
    g, M = 0.4, 2
    xp, xm = _rational_pair(1.2 - 0.7j, M, g)
    gam = cmath.sqrt(1j * (xm - xp))
    Kr = rational_limit_kmatrix(xp, xm, g, M, gamma=gam, gamma_bar=gam)
    errs = []
    for eps in (1e-3, 1e-4):
        p = ModelParams(q=1 + eps, g=g, gamma=gam, gamma_bar=gam)
        xpq = min(solve_shortening(xm, M, p), key=lambda r: abs(r - xp))
        Kq = closed_form_kmatrix(make_kinematics(M, xpq, xm, p), p)
        err = np.abs(Kq - Kr).max()
        errs.append(err)
        assert err < 50 * eps
    rate = np.log10(errs[0] / errs[1])
    assert abs(rate - 1) < 0.2


def test_rational_fundamental_limit():
    g = 0.4
    xp, xm = _rational_pair(1.2 - 0.7j, 1, g)
    A = k_coefficients(rational_limit_kmatrix(xp, xm, g, 1))["A"]
    assert abs(A[1] / A[0] + xm / xp) < 1e-12


def test_rational_palla_normalization_real_structure():
    # gamma = gamma_bar = sqrt(i(x- - x+)) gives C_0 = 1
    g, M = 0.4, 3
    xp, xm = _rational_pair(1.2 - 0.7j, M, g)
    gam = cmath.sqrt(1j * (xm - xp))
    K = k_coefficients(rational_limit_kmatrix(xp, xm, g, M, gamma=gam, gamma_bar=gam))
    assert abs(K["C"][0] - 1) < 1e-12
    assert abs(K["A"][0] - 1) < 1e-12


def test_rational_off_shell_rejected():
    with pytest.raises(Exception):
        rational_limit_kmatrix(2.0 + 1j, 1.2 - 0.7j, 0.4, 2)
