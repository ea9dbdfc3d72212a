"""S-matrix intertwiners: uniqueness, residuals, ablation, Yang-Baxter.

The package solves the braided Ř: V1 (x) V2 -> V2 (x) V1; the tests carry it
to S = P_21 Ř with the dense graded flip of conftest where they check the
S-form identities.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qab import smatrix
from qab.coalgebra import Leg
from qab.harness import _point_rng, load_config, run_suite, sample_kinematics
from qab.kinematics import reflect_kinematics
from qab.kmatrix import boundary_system
from qab.numerics import TOL_ALGEBRA, TOL_COMPOSITE, rel_residual
from qab.smatrix import (
    NULL_GAP,
    VerificationError,
    intertwiner_system,
    pair_residuals,
    product_weights,
    spectral_gap,
    unique_intertwiner,
    ybe_residual,
)
from qab.representation import GENERATORS, SHIFTS, build_basis

from conftest import (
    braided_s,
    dense,
    dense_coproduct,
    dense_ybe_residual,
    graded_permutation,
    kin_at,
    s_ablation,
    s_nullspace,
)


def _intertwining(S, kin1, kin2, params):
    """Per-generator residual of Ř Delta_12(J) = Delta_21(J) Ř over all twelve."""
    pairs = intertwiner_system(Leg(kin1, params), Leg(kin2, params))
    return dict(zip(GENERATORS, pair_residuals(S, pairs)))


@pytest.fixture(scope="module")
def points(kin_of):
    return {
        1: kin_of(1, 1.3 + 0.8j),
        "1b": kin_of(1, 0.9 - 1.1j),
        2: kin_of(2, 0.9 - 1.1j),
        "2b": kin_of(2, 1.4 + 0.5j),
        3: kin_of(3, 1.1 + 0.9j),
        "3b": kin_of(3, -0.8 + 1.2j),
    }


def test_fundamental_null_space_is_one_dimensional(points, params):
    solution = s_nullspace(points[1], points["1b"], params)
    S, sv = unique_intertwiner(solution), solution[1]
    assert S.shape == (16, 16)
    # SVD oracle: exactly one vanishing singular value
    assert sv[-1] < 1e-12 and sv[-2] > 1e-3


@pytest.mark.parametrize(
    "k1,k2", [(1, "1b"), (2, 1), (2, "2b"), (3, 1), (3, 2)], ids=str
)
def test_intertwining_residuals(k1, k2, points, params):
    S = braided_s(points[k1], points[k2], params)
    res = _intertwining(S, points[k1], points[k2], params)
    assert max(res.values()) < TOL_ALGEBRA, res


def test_anchor_normalization(points, params):
    S = braided_s(points[2], points[1], params)
    s1, s2 = build_basis(2), build_basis(1)
    anchor = s1.index[(0, 0, 0, 2)] * s2.dim + s2.index[(0, 0, 0, 1)]
    assert anchor == 0
    assert abs(S[anchor, anchor] - 1) < 1e-12
    # the anchor state is alone in its joint weight class, so its row is pure
    row = S[anchor].copy()
    row[anchor] = 0
    assert np.linalg.norm(row) < 1e-12


def test_weight_block_structure(points, params):
    # Ř vanishes between states of different (H1, H3) joint weight
    R = braided_s(points[2], points[1], params)
    s1, s2 = build_basis(2), build_basis(1)
    w12, w21 = product_weights(s1, s2), product_weights(s2, s1)
    for i in range(len(w21)):
        for j in range(len(w12)):
            if w21[i] != w12[j]:
                assert abs(R[i, j]) < 1e-14


@pytest.mark.parametrize("M1,M2", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_product_weights_sum_the_leg_weights(M1, M2):
    s1, s2 = build_basis(M1), build_basis(M2)
    legs = [[(l - k, n - m) for m, n, k, l in s.states] for s in (s1, s2)]
    expected = [(a1 + b1, a3 + b3) for a1, a3 in legs[0] for b1, b3 in legs[1]]
    assert list(map(tuple, product_weights(s1, s2))) == expected


def test_nullspace_vector_satisfies_full_equations(points, params):
    # independent of the solver's internal assembly: apply the coproduct
    # difference directly to the returned matrix
    R = braided_s(points[1], points["1b"], params)
    leg1 = Leg(points[1], params)
    leg2 = Leg(points["1b"], params)
    for gen in SHIFTS:
        A = dense_coproduct(gen, leg1, leg2).matrix
        B = dense_coproduct(gen, leg2, leg1).matrix
        assert np.linalg.norm(R @ A - B @ R) < 1e-12, gen


@pytest.mark.parametrize("k1,k2", [(1, "1b"), (1, 2), (2, 1), (2, "2b"), (3, "3b")], ids=str)
def test_braided_intertwiner_is_the_flipped_s_matrix(k1, k2, points, params):
    # S = P_21 Ř intertwines Delta_12 with Delta^op = P_21 Delta_21 P_12, for
    # all twelve generators; P maps basis index 0 to 0, so S[0, 0] = 1 too
    kin1, kin2 = points[k1], points[k2]
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    P12 = graded_permutation(leg1.space, leg2.space)
    P21 = graded_permutation(leg2.space, leg1.space)
    S = P21 @ braided_s(kin1, kin2, params)
    assert S[0, 0] == 1
    for gen in GENERATORS:
        delta = dense_coproduct(gen, leg1, leg2).matrix
        delta_op = P21 @ dense_coproduct(gen, leg2, leg1).matrix @ P12
        assert rel_residual(S @ delta, delta_op @ S) < TOL_ALGEBRA, gen


@pytest.mark.parametrize("k1,k2", [(1, 2), (3, 2)], ids=str)
def test_pair_residuals_on_terms_match_the_dense_products(k1, k2, points, params):
    # an S pair is two lists of coproduct terms, applied by reshape, and a K
    # pair two one-leg matrices; either residual must equal
    # ||X A - B X|| / max(1, ||X||) formed with the dense matrices
    rng = np.random.default_rng(0)
    leg1, leg2 = Leg(points[k1], params), Leg(points[k2], params)
    s_pairs = intertwiner_system(leg1, leg2)
    k_pairs = boundary_system(points[k1], params)[0]
    for pairs, dense_pairs in ((s_pairs, [(dense(A), dense(B)) for A, B in s_pairs]),
                               (k_pairs, k_pairs)):
        dim = len(dense_pairs[0][0])
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for (A, B), res in zip(dense_pairs, pair_residuals(X, pairs)):
            expected = np.linalg.norm(X @ A - B @ X) / max(1.0, np.linalg.norm(X))
            assert abs(res - expected) <= 1e-13 * expected


def test_affine_ablation_raises_dimension(points, params):
    # with both bound-state numbers >= 2 the subalgebra alone no longer fixes
    # S; the affine generators are what force uniqueness
    sv_full = s_nullspace(points[2], points["2b"], params)[1]
    sv_ablated = s_ablation(points[2], points["2b"], params)[1]
    assert spectral_gap(sv_full) <= NULL_GAP
    assert spectral_gap(sv_ablated) > NULL_GAP


def test_fundamental_leg_stays_unique_without_affine(points, params):
    # known exception: a fundamental (M=1) factor leaves the product
    # irreducible under the subalgebra, so the ablation does not degenerate
    sv = s_ablation(points[1], points["1b"], params)[1]
    assert spectral_gap(sv) <= NULL_GAP


def test_degenerate_request_raises(points, params):
    solution = s_ablation(points[2], points["2b"], params)
    with pytest.raises(VerificationError, match="no spectral gap"):
        unique_intertwiner(solution)
    # sigma_2 = 0: fewer equations than unknowns, no gap either
    X, sv, shape = solution
    with pytest.raises(VerificationError, match="no spectral gap"):
        unique_intertwiner((X, np.zeros_like(sv), shape))


def test_s_at_reflected_legs(points, params):
    kin2r = reflect_kinematics(points["1b"], params)
    S = braided_s(points[1], kin2r, params)
    assert max(_intertwining(S, points[1], kin2r, params).values()) < TOL_ALGEBRA


@pytest.mark.parametrize(
    "Ms", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)], ids=str
)
def test_yang_baxter(Ms, points, params, kin_of):
    seeds = {1: [1.3 + 0.8j, 0.9 - 1.1j, -0.8 + 1.2j], 2: [0.9 - 1.1j, 1.4 + 0.5j, -1.1 - 0.7j]}
    used = {1: 0, 2: 0}
    kins = []
    for M in Ms:
        kins.append(kin_of(M, seeds[M][used[M]]))
        used[M] += 1
    assert ybe_residual(*kins, params, np.random.default_rng(1)) < TOL_COMPOSITE


def test_yang_baxter_full_m2_triple(params, kin_of):
    kins = [kin_of(2, xm) for xm in (0.9 - 1.1j, 1.4 + 0.5j, -1.1 - 0.7j)]
    assert ybe_residual(*kins, params, np.random.default_rng(1)) < TOL_COMPOSITE


def _s_form_ybe_residual(kins, params):
    """S23 S13 S12 = S12 S13 S23 on V1 (x) V2 (x) V3 with S = P_21 Ř, S13
    embedded on V1 (x) V3 (x) V2 and carried over by the graded flip."""
    spaces = [build_basis(k.M) for k in kins]
    s1, s2, s3 = spaces
    I1, I2, I3 = (np.eye(s.dim) for s in spaces)

    def S(i, j):  # P_21 Ř on V_i (x) V_j
        return graded_permutation(spaces[j], spaces[i]) @ braided_s(kins[i], kins[j], params)

    S12 = np.kron(S(0, 1), I3)
    S13 = (np.kron(I1, graded_permutation(s3, s2)) @ np.kron(S(0, 2), I2)
           @ np.kron(I1, graded_permutation(s2, s3)))
    S23 = np.kron(I1, S(1, 2))
    return rel_residual(S23 @ S13 @ S12, S12 @ S13 @ S23)


@pytest.mark.parametrize(
    "Ms",
    [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3)],
    ids=str,
)
def test_braided_ybe_matches_s_form(Ms, params, kin_of):
    # the leg-wise braid relation on the identity (the oracle of the probed
    # check) equals the dense S-form YBE up to a signed permutation; unequal
    # legs would expose a wrong reshape
    xms = [1.3 + 0.8j, 0.9 - 1.1j, -0.8 + 1.2j]
    kins = [kin_of(M, xm) for M, xm in zip(Ms, xms)]
    assert abs(dense_ybe_residual(*kins, params) - _s_form_ybe_residual(kins, params)) < 1e-13


#: Every triple of M <= 2, and one with three unequal legs.
PROBE_TRIPLES = sorted(set(product((1, 2), repeat=3))) + [(3, 1, 2)]


@pytest.mark.parametrize("q", [1.1, 1.5])
@pytest.mark.parametrize("Ms", PROBE_TRIPLES, ids=str)
def test_probed_ybe_is_within_a_factor_10_of_the_dense_oracle(Ms, q, params):
    # at seeds 1-15 the residual on four random probes reads the dense
    # three-leg residual to within a factor of 10 either way
    p = replace(params, q=q)
    for seed in range(1, 16):
        rng = _point_rng(seed, 13000)
        kins = [sample_kinematics(M, p, rng) for M in Ms]
        probed, exact = ybe_residual(*kins, p, rng), dense_ybe_residual(*kins, p)
        assert exact / 10 <= probed <= 10 * exact, (seed, probed, exact)


@pytest.mark.parametrize("M", [[1, 2], [3]], ids=str)
def test_probed_ybe_fails_a_perturbed_entry(M, monkeypatch):
    # the largest entry of each point's Ř12 off by a relative 1e-6 makes
    # every probed row FAIL
    solved = []
    real = smatrix.unique_intertwiner

    def perturbed(solution):
        R = real(solution)
        if len(solved) % 3 == 0:  # Ř12, Ř13, Ř23 per point
            R[np.unravel_index(np.abs(R).argmax(), R.shape)] *= 1 + 1e-6
        solved.append(R)
        return R

    monkeypatch.setattr(smatrix, "unique_intertwiner", perturbed)
    rows = run_suite("ybe", load_config(data={"M": M, "seed": 3}))["checks"]
    assert len(rows) == len(M) ** 3 and not any(r["passed"] for r in rows)
    assert all(r["residual"] > 10 * r["threshold"] for r in rows)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_probed_ybe_fails_a_factor_on_the_wrong_legs(M, monkeypatch):
    # Ř13 of the left side applied to the leading two legs, where Ř12 put
    # V2 (x) V1, in place of the trailing two: the row FAILs
    cfg = load_config(data={"M": [M], "seed": 3})
    assert run_suite("ybe", cfg)["passed"]  # and every S cache is warm
    calls = []
    real = smatrix._on_right

    def first_on_the_left(R, T):
        calls.append(R)
        return smatrix._on_left(R, T) if len(calls) == 1 else real(R, T)

    monkeypatch.setattr(smatrix, "_on_right", first_on_the_left)
    (row,) = run_suite("ybe", cfg)["checks"]
    assert len(calls) == 3 and not row["passed"] and row["residual"] > 1e-2


#: The couplings' q of the identities of Ř: two real and the CI's complex one.
R_QS = {"q1.1": 1.1, "q1.5": 1.5, "q-complex": complex(1.105273192803462, 0.4673020107703806)}


def braiding_unitarity_error(R12, R21) -> float:
    """Backward error of Ř21 Ř12 = 1 on V1 (x) V2, of dimension D:
    ||Ř21 Ř12 - 1||_F / (||Ř21||_2 ||Ř12||_2 sqrt(D))."""
    D = len(R12)
    return float(np.linalg.norm(R21 @ R12 - np.eye(D))
                 / (np.linalg.norm(R21, 2) * np.linalg.norm(R12, 2) * np.sqrt(D)))


def regularity_error(R) -> float:
    """||Ř - 1||_F / sqrt(D) of Ř(p, p) on V (x) V, of dimension D."""
    return float(np.linalg.norm(R - np.eye(len(R))) / np.sqrt(len(R)))


@pytest.mark.parametrize("q", R_QS.values(), ids=R_QS.keys())
@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)], ids=str)
def test_braiding_unitarity(pair, q, params):
    # Ř21 Ř12 = 1: the braided S of the swapped points inverts Ř12 (both
    # normalized at [0, 0]); an Ř scaled by 2 fails
    p = replace(params, q=q)
    kin1, kin2 = kin_at(pair[0], 1.3 + 0.8j, p), kin_at(pair[1], 0.9 - 1.1j, p)
    R12, R21 = braided_s(kin1, kin2, p), braided_s(kin2, kin1, p)
    assert braiding_unitarity_error(R12, R21) <= 1e-14
    assert braiding_unitarity_error(2 * R12, R21) > 1e-14


@pytest.mark.parametrize("q", R_QS.values(), ids=R_QS.keys())
@pytest.mark.parametrize("M", [1, 2, 3])
def test_regularity(M, q, params):
    # Ř(p, p) = 1: at equal points S is the graded flip; an Ř scaled by 2 fails
    p = replace(params, q=q)
    kin = kin_at(M, 1.3 + 0.8j, p)
    R = braided_s(kin, kin, p)
    assert regularity_error(R) <= 1e-12
    assert regularity_error(2 * R) > 1e-12
