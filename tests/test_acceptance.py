"""Acceptance gate: the ten headline verification criteria.

Each test evaluates one criterion at its stated tolerance and prints a single
pass/fail line, so the selected output of this module reads as a checklist.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import cmath
import time

import numpy as np
import pytest

from qab.coalgebra import Leg, coideal_expansion_check, coproduct_map, yangian_limit_probe
from qab.harness import RunConfig, sample_kinematics
from qab.kinematics import ModelParams, make_kinematics, solve_shortening
from qab.kmatrix import (
    PRESERVED_CHARGES,
    RATIONAL_LIMIT_EPS,
    boundary_system,
    boundary_ybe_residual,
    ck_symmetry_residual,
    closed_form_kmatrix,
    compare_kmatrices,
    rational_limit_errors,
    reflection_smatrices,
    unitarity_residual,
)
from qab.representation import GENERATORS, build_basis, verify_algebra
from qab.smatrix import (
    NULL_GAP,
    SANS_AFFINE,
    commutant_nullspace,
    intertwiner_system,
    pair_residuals,
    spectral_gap,
    unique_intertwiner,
    weight_nullspace,
    ybe_residual,
)

from conftest import constant_c_kmatrix, k_coefficients

PARAMS = ModelParams(q=1.1, g=0.4, gamma=1.2 + 0.3j, gamma_bar=0.8 - 0.5j)
SEED = 7


def _sample(M, index, params=PARAMS):
    rng = np.random.default_rng([SEED, index])
    return sample_kinematics(M, params, rng)


def _report(number, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {label} ({detail})")
    assert passed, f"criterion {number}: {label}: {detail}"


def test_criterion_1_representation_validity():
    t0 = time.monotonic()
    worst = 0.0
    for M in (1, 2, 3, 4):
        space = build_basis(M)
        kins = [_sample(M, 100 * M + s) for s in range(20)]
        for res in verify_algebra(kins, PARAMS, space):
            worst = max(worst, max(res.values()))
    elapsed = time.monotonic() - t0
    _report(
        1, "representation defining relations",
        worst < 1e-10 and elapsed < 60,
        f"worst residual {worst:.2e} over 80 points, {elapsed:.1f}s",
    )


def test_criterion_2_smatrix_uniqueness():
    # unique_intertwiner raises unless sigma_1 / sigma_2 <= NULL_GAP
    worst = 0.0
    ablation_ok = True
    for i, (M1, M2) in enumerate((a, b) for a in (1, 2, 3) for b in (1, 2, 3)):
        kin1 = _sample(M1, 200 + 2 * i)
        kin2 = _sample(M2, 201 + 2 * i)
        leg1, leg2 = Leg(kin1, PARAMS), Leg(kin2, PARAMS)
        S = unique_intertwiner(commutant_nullspace(kin1, kin2, PARAMS))
        worst = max(worst, *pair_residuals(S, intertwiner_system(leg1, leg2, GENERATORS)))
        if min(M1, M2) >= 2:
            # the affine supercharges are what force uniqueness; with a
            # fundamental leg the subalgebra suffices, so the ablation is
            # probed on the bound-state pairs
            sv = commutant_nullspace(kin1, kin2, PARAMS, SANS_AFFINE)[1]
            ablation_ok &= spectral_gap(sv) > NULL_GAP
    _report(
        2, "S-matrix uniqueness and affine ablation",
        ablation_ok and worst < 1e-10,
        f"gaps below {NULL_GAP:g}, worst intertwining residual {worst:.2e}, "
        "ablation closes the gap",
    )


def test_criterion_3_yang_baxter():
    t0 = time.monotonic()
    worst = 0.0
    for i, Ms in enumerate([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)]):
        kins = [_sample(M, 300 + 10 * i + j) for j, M in enumerate(Ms)]
        worst = max(worst, ybe_residual(*kins, PARAMS, np.random.default_rng([SEED, 13000 + i])))
    elapsed = time.monotonic() - t0
    _report(
        3, "Yang-Baxter equation",
        worst < 1e-8 and elapsed < 180,
        f"worst residual {worst:.2e} over 8 triples, {elapsed:.1f}s",
    )


def test_criterion_4_kmatrix_equivalence():
    worst = 0.0
    ablation_ok = True
    for M in (1, 2, 3):
        kin = _sample(M, 400 + M)
        K = closed_form_kmatrix(kin, PARAMS)
        pairs, weights = boundary_system(kin, PARAMS)
        Ks = unique_intertwiner(weight_nullspace(pairs, weights))
        worst = max(worst, compare_kmatrices(K, Ks))
        if M >= 2:
            # at M = 1 the preserved subalgebra already fixes K; the twisted
            # charges become essential from M = 2 on
            preserved = pairs[:len(PRESERVED_CHARGES)]
            ablation_ok &= spectral_gap(weight_nullspace(preserved, weights)[1]) > NULL_GAP
    _report(
        4, "closed-form K equals intertwiner K",
        worst < 1e-9 and ablation_ok,
        f"worst scalar-aligned difference {worst:.2e}, twisted ablation closes the gap",
    )


def test_criterion_5_reflection_equation():
    worst = 0.0
    control = np.inf
    for i, (M1, M2) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        for s in range(5):
            kin1 = _sample(M1, 500 + 20 * i + 2 * s)
            kin2 = _sample(M2, 501 + 20 * i + 2 * s)
            smats = reflection_smatrices(kin1, kin2, PARAMS)
            K1, K2 = (closed_form_kmatrix(k, PARAMS) for k in (kin1, kin2))
            worst = max(worst, boundary_ybe_residual(K1, K2, smats))
            if s == 0 and max(M1, M2) >= 2:
                T1, T2 = (constant_c_kmatrix(k, PARAMS) for k in (kin1, kin2))
                control = min(control, boundary_ybe_residual(T1, T2, smats))
    _report(
        5, "reflection equation with trivial-C control",
        worst < 1e-8 and control > 1e-2,
        f"worst residual {worst:.2e} over 20 points, trivial C residual {control:.2e}",
    )


def test_criterion_6_unitarity():
    worst = max(unitarity_residual(_sample(M, 600 + M), PARAMS) for M in (1, 2, 3))
    _report(6, "K(p) K(-p) = Id", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_7_ck_covariance():
    worst = max(
        ck_symmetry_residual(_sample(M, 700 + M), PARAMS).max() for M in (2, 3, 4)
    )
    _report(
        7, "C_k covariance under k -> M-k-1",
        worst < 1e-10, f"worst residual {worst:.2e}",
    )


def test_criterion_8_rational_limit():
    g, M = 0.4, 2
    xm = 1.2 - 0.7j
    errs = rational_limit_errors(xm, M, ModelParams(q=1.1, g=g))
    ok = all(err <= 10 * eps for eps, err in zip(RATIONAL_LIMIT_EPS, errs))
    rate = float(np.log10(errs[0] / errs[1]))
    # fundamental M=1 limit of the diagonal ratio
    xp1 = ((xm + 1 / xm + 1j / g) + cmath.sqrt((xm + 1 / xm + 1j / g) ** 2 - 4)) / 2
    p1 = ModelParams(q=1 + 1e-6, g=g)
    xpq1 = min(solve_shortening(xm, 1, p1), key=lambda r: abs(r - xp1))
    A = k_coefficients(closed_form_kmatrix(make_kinematics(1, xpq1, xm, p1), p1))["A"]
    fund = abs(A[1] / A[0] + xm / xp1)
    _report(
        8, "rational limit of reflection coefficients",
        ok and abs(rate - 1) < 0.3 and fund < 1e-4,
        f"errors {errs[0]:.1e}, {errs[1]:.1e} (rate {rate:.2f}), fundamental {fund:.1e}",
    )


def test_criterion_9_yangian_limit_existence():
    table = yangian_limit_probe(
        [1 + 1e-2, 1 + 1e-3, 1 + 1e-4], 1.3 + 0.8j, 1, ModelParams(q=1.1, g=0.4)
    )
    ok = True
    worst_ratio = 0.0
    for name, row in table.items():
        ok &= np.isfinite(row["norms"][-1])
        ok &= row["diffs"][-1] < row["diffs"][0]
        worst_ratio = max(worst_ratio, row["ratios"][-1])
    # O(q-1) Cauchy rate: successive difference ratios track the step ratio 0.1
    ok &= worst_ratio < 0.5
    _report(
        9, "rescaled twisted charges converge along q -> 1",
        ok, f"worst difference ratio {worst_ratio:.3f} (step ratio 0.1)",
    )


def test_criterion_10_coideal_expansions():
    worst = 0.0
    for i, (M1, M2) in enumerate([(1, 1), (2, 1), (1, 2), (2, 2)]):
        kin1 = _sample(M1, 900 + 2 * i)
        kin2 = _sample(M2, 901 + 2 * i)
        leg1, leg2 = Leg(kin1, PARAMS), Leg(kin2, PARAMS)
        res = coideal_expansion_check(leg1, leg2, coproduct_map(leg1, leg2), PARAMS)
        worst = max(worst, max(res.values()))
    _report(
        10, "coideal coproduct expansions of the twisted charges",
        worst < 1e-10, f"worst residual {worst:.2e} over pairs up to (2,2)",
    )
