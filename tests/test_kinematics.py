"""Kinematics layer: couplings, shortening roots, centrals, labels, reflection.

Frozen reference values were produced by an independent mpmath evaluation at
50 decimal digits of the same closed forms; double-precision results must
match them to full working precision.
"""

import cmath

import numpy as np
import pytest

from qab.kinematics import (
    Kinematics,
    KinematicsError,
    ModelParams,
    affine_labels,
    bulk_labels,
    _central_elements,
    derive_couplings,
    make_kinematics,
    on_shell,
    reflect_kinematics,
    shortening_residual,
    solve_shortening,
)
from qab.numerics import TOL_CLOSED_FORM, qint, rel_residual

from conftest import kin_at

# 50-digit mpmath evaluations, frozen.
XI_Q12_G05 = 0.0 - 0.1864942605733198j
GT_Q12_G05 = 0.5086207106545085 + 0.0j
ROOTS_M1 = (
    2.781307453332525 + 3.8643561256571766j,
    0.12269254666747537 - 0.17046935739479074j,
)
UVZ_M2 = {
    "x_plus": 2.1681728119462744 + 4.398387485050977j,
    "U": 1.6408502675289391 + 0.4978825652153685j,
    "V": 1.0451736949838932 - 0.014658806895044708j,
    "z": 1.1243732012178635 - 0.11977049677831918j,
}
LABELS_M1 = (
    0.6324555320336759 + 0.0j,
    0.7701904435674768 - 0.8732980866442578j,
    0.08605569455087465 - 0.13331223302011772j,
    1.5012872384401998 - 0.2823204575074555j,
)
LABELS_M2 = (
    0.4462006528731602 + 0.0j,
    1.2887285396813262 - 1.2634374667559598j,
    0.02405110269159402 - 0.05735495759321213j,
    2.146134939848444 - 0.23765908998494117j,
)
AFFINE_M2 = (
    0.05672833126245756 + 0.02221267757833347j,
    0.6114858750376869 + 2.6860970749904918j,
    -0.03962554197370099 + 0.3474842219207393j,
    1.2580600082287257 + 1.3460144510454175j,
)


def test_derive_couplings_against_oracle():
    xi, gt = derive_couplings(1.2, 0.5)
    assert abs(xi - XI_Q12_G05) < TOL_CLOSED_FORM
    assert abs(gt - GT_Q12_G05) < TOL_CLOSED_FORM


def test_coupling_defining_identities():
    q, g = 1.2, 0.5
    xi, gt = derive_couplings(q, g)
    assert abs(xi + 1j * gt * (q - 1 / q)) < TOL_CLOSED_FORM
    assert abs(gt**2 * (1 - g**2 * (q - 1 / q) ** 2) - g**2) < TOL_CLOSED_FORM


def test_singular_coupling_rejected():
    from qab.kinematics import SingularCouplingError

    # pick g so that g^2 (q - 1/q)^2 = 1
    q = 1.5
    g = 1 / (q - 1 / q)
    with pytest.raises(SingularCouplingError):
        derive_couplings(q, g)


def test_shortening_roots_against_oracle(params):
    r1, r2 = solve_shortening(2 + 1j, 1, params)
    got = sorted((r1, r2), key=abs)
    want = sorted(ROOTS_M1, key=abs)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-11


@pytest.mark.parametrize("M", [1, 2, 3])
def test_both_roots_satisfy_shortening(M, params):
    for xm in (1.3 + 0.8j, 0.9 - 1.1j, -0.6 + 1.2j):
        for xp in solve_shortening(xm, M, params):
            assert shortening_residual(xp, xm, M, params) < TOL_CLOSED_FORM


def test_shortening_pole_free_at_q_one():
    # the rewritten condition must evaluate finitely at q = 1
    p = ModelParams(q=1.0, g=0.4)
    xm = 1.2 - 0.7j
    roots = solve_shortening(xm, 2, p)
    for xp in roots:
        assert np.isfinite(abs(xp))
        assert shortening_residual(xp, xm, 2, p) < TOL_CLOSED_FORM


def test_central_elements_against_oracle():
    p = ModelParams(q=1.05, g=0.6)
    kin = make_kinematics(2, UVZ_M2["x_plus"], 1.3 + 0.8j, p)
    assert abs(kin.U - UVZ_M2["U"]) < 1e-11
    assert abs(kin.V - UVZ_M2["V"]) < 1e-11
    assert abs(kin.z - UVZ_M2["z"]) < 1e-11
    U, V, z = _central_elements(kin.M, kin.x_plus, kin.x_minus, p)
    assert abs(U - kin.U) < TOL_CLOSED_FORM


def test_z_from_centrals(params, kin_of):
    kin = kin_of(2, 1.3 + 0.8j)
    z = (1 - kin.U**2 * kin.V**2) / (kin.V**2 - kin.U**2)
    assert abs(z - kin.z) < TOL_CLOSED_FORM


def test_off_shell_pair_rejected(params):
    with pytest.raises(KinematicsError):
        make_kinematics(1, 2.0 + 0.1j, 1.3 + 0.8j, params)


@pytest.mark.parametrize(
    "M,frozen", [(1, LABELS_M1), (2, LABELS_M2)], ids=["M1", "M2"]
)
def test_labels_against_oracle(M, frozen, params, kin_of):
    kin = kin_of(M, 1.3 + 0.8j)
    for got, want in zip(bulk_labels(kin, params), frozen):
        assert abs(got - want) < 1e-11


def test_affine_labels_against_oracle(params, kin_of):
    kin = kin_of(2, 1.3 + 0.8j)
    for got, want in zip(affine_labels(kin, params), AFFINE_M2):
        assert abs(got - want) < 1e-11


def label_constraint_residuals(kin, params, affine=False):
    """Residuals of the four label constraints (ad, bc, ab, cd).

    With affine=True the constraints are evaluated for the affine labels,
    i.e. with (U, V) -> (1/U, 1/V) and alpha -> alpha*alpha_tilde^2.
    """
    q = params.q
    M = kin.M
    if affine:
        a, b, c, d = affine_labels(kin, params)
        U, V = 1 / kin.U, 1 / kin.V
        alpha = params.alpha * params.alpha_tilde**2
    else:
        a, b, c, d = bulk_labels(kin, params)
        U, V = kin.U, kin.V
        alpha = params.alpha
    g = params.g
    qm = q**M
    return {
        "ad": rel_residual(a * d, (q ** (M / 2) * V - q ** (-M / 2) / V) / (qm - 1 / qm)),
        "bc": rel_residual(b * c, (q ** (-M / 2) * V - q ** (M / 2) / V) / (qm - 1 / qm)),
        "ab": rel_residual(a * b, g * alpha / qint(M, q) * (1 - U**2 * V**2)),
        "cd": rel_residual(c * d, g / alpha / qint(M, q) * (V**-2 - U**-2)),
    }


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("affine", [False, True], ids=["bulk", "affine"])
def test_label_constraints(M, affine, params, kin_of):
    kin = kin_of(M, 0.9 - 1.1j)
    res = label_constraint_residuals(kin, params, affine=affine)
    assert max(res.values()) < 1e-10, res


def test_reflection_involution(params, kin_of):
    kin = kin_of(2, 1.3 + 0.8j)
    back = reflect_kinematics(reflect_kinematics(kin, params), params)
    assert abs(back.x_plus - kin.x_plus) < TOL_CLOSED_FORM
    assert abs(back.x_minus - kin.x_minus) < TOL_CLOSED_FORM
    assert abs(back.U - kin.U) < TOL_CLOSED_FORM
    assert back.gamma == kin.gamma


def test_reflection_inverts_z_and_U(params, kin_of):
    kin = kin_of(2, 0.9 - 1.1j)
    ref = reflect_kinematics(kin, params)
    assert abs(ref.z * kin.z - 1) < TOL_CLOSED_FORM
    assert abs(ref.U * kin.U - 1) < TOL_CLOSED_FORM
    assert abs(ref.V - kin.V) < TOL_CLOSED_FORM


def test_reflected_point_is_on_shell(params, kin_of):
    kin = kin_of(3, 1.1 + 0.9j)
    ref = reflect_kinematics(kin, params)
    assert shortening_residual(ref.x_plus, ref.x_minus, 3, params) < 1e-11


def test_reflection_swaps_gamma(params_gammas):
    kin = kin_at(1, 1.3 + 0.8j, params_gammas)
    ref = reflect_kinematics(kin, params_gammas)
    assert ref.gamma == params_gammas.gamma_bar
    assert reflect_kinematics(ref, params_gammas).gamma == params_gammas.gamma


def test_root_of_unity_guard():
    p = ModelParams(q=cmath.exp(2j * cmath.pi / 6), g=0.4)
    with pytest.raises(KinematicsError):
        p.check_not_root_of_unity()
    ModelParams(q=1.1, g=0.4).check_not_root_of_unity()


def test_qint_values():
    assert abs(qint(3, 1.2) - (1.2**3 - 1.2**-3) / (1.2 - 1 / 1.2)) < 1e-15
    assert qint(4, 1) == 4.0


@pytest.mark.parametrize("mp", [False, True], ids=["complex128", "mpmath"])
def test_on_shell_picks_root(mp):
    import mpmath

    num = mpmath.mpc if mp else complex
    with mpmath.workprec(106):
        p = ModelParams(q=num(1.2), g=num(0.5))
        xm = num(1.3 + 0.8j)
        big, small = sorted(solve_shortening(xm, 2, p), key=abs, reverse=True)
        assert abs(big) > abs(small)
        kin = on_shell(2, xm, p)
        assert kin.x_plus == big and kin.x_minus == xm and kin.M == 2
        assert shortening_residual(kin.x_plus, xm, 2, p) < (1e-28 if mp else 1e-14)
        # near either root, or a point just off it, selects that root
        for root in (big, small):
            assert on_shell(2, xm, p, near=root).x_plus == root
            assert on_shell(2, xm, p, near=complex(root) + 1e-3).x_plus == root
