"""S-matrix intertwiners: uniqueness, residuals, ablation, Yang-Baxter.

The package solves the braided Ř: V1 (x) V2 -> V2 (x) V1; the tests carry it
to S = P_21 Ř with the dense graded flip of conftest where they check the
S-form identities.
"""

import numpy as np
import pytest

from qab.coalgebra import Leg, coproduct
from qab.kinematics import reflect_kinematics
from qab.numerics import TOL_ALGEBRA, TOL_COMPOSITE, rel_residual
from qab.smatrix import (
    DEFAULT_GENERATORS,
    SANS_AFFINE,
    IntertwinerError,
    commutant_nullspace,
    intertwining_residual,
    product_weights,
    solve_intertwiner,
    unique_intertwiner,
    ybe_residual,
)
from qab.representation import GENERATORS, build_basis

from conftest import graded_permutation


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
    S, sv, _ = unique_intertwiner(commutant_nullspace(points[1], points["1b"], params))
    assert S.shape == (16, 16)
    # SVD oracle: exactly one vanishing singular value
    assert sv[-1] < 1e-12 and sv[-2] > 1e-3


@pytest.mark.parametrize(
    "k1,k2", [(1, "1b"), (2, 1), (2, "2b"), (3, 1), (3, 2)], ids=str
)
def test_intertwining_residuals(k1, k2, points, params):
    S = solve_intertwiner(points[k1], points[k2], params)
    res = intertwining_residual(S, points[k1], points[k2], params)
    assert max(res.values()) < TOL_ALGEBRA, res


def test_anchor_normalization(points, params):
    S = solve_intertwiner(points[2], points[1], params)
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
    R = solve_intertwiner(points[2], points[1], params)
    s1, s2 = build_basis(2), build_basis(1)
    w12, w21 = product_weights(s1, s2), product_weights(s2, s1)
    for i in range(len(w21)):
        for j in range(len(w12)):
            if w21[i] != w12[j]:
                assert abs(R[i, j]) < 1e-14


def test_nullspace_vector_satisfies_full_equations(points, params):
    # independent of the solver's internal assembly: apply the coproduct
    # difference directly to the returned matrix
    R = solve_intertwiner(points[1], points["1b"], params)
    leg1 = Leg(points[1], params)
    leg2 = Leg(points["1b"], params)
    for gen in DEFAULT_GENERATORS:
        A = coproduct(gen, leg1, leg2).matrix
        B = coproduct(gen, leg2, leg1).matrix
        assert np.linalg.norm(R @ A - B @ R) < 1e-12, gen


@pytest.mark.parametrize("k1,k2", [(1, "1b"), (1, 2), (2, 1), (2, "2b"), (3, "3b")], ids=str)
def test_braided_intertwiner_is_the_flipped_s_matrix(k1, k2, points, params):
    # S = P_21 Ř intertwines Delta_12 with Delta^op = P_21 Delta_21 P_12, for
    # all twelve generators; P maps basis index 0 to 0, so S[0, 0] = 1 too
    kin1, kin2 = points[k1], points[k2]
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    P12 = graded_permutation(leg1.space, leg2.space)
    P21 = graded_permutation(leg2.space, leg1.space)
    S = P21 @ solve_intertwiner(kin1, kin2, params)
    assert S[0, 0] == 1
    for gen in GENERATORS:
        delta = coproduct(gen, leg1, leg2).matrix
        delta_op = P21 @ coproduct(gen, leg2, leg1).matrix @ P12
        assert rel_residual(S @ delta, delta_op @ S) < TOL_ALGEBRA, gen


def test_affine_ablation_raises_dimension(points, params):
    # with both bound-state numbers >= 2 the subalgebra alone no longer fixes
    # S; the affine generators are what force uniqueness
    nd_full = commutant_nullspace(points[2], points["2b"], params)[2]
    nd_ablated = commutant_nullspace(points[2], points["2b"], params, SANS_AFFINE)[2]
    assert nd_full == 1
    assert nd_ablated > 1


def test_fundamental_leg_stays_unique_without_affine(points, params):
    # known exception: a fundamental (M=1) factor leaves the product
    # irreducible under the subalgebra, so the ablation does not degenerate
    nd = commutant_nullspace(points[1], points["1b"], params, SANS_AFFINE)[2]
    assert nd == 1


def test_degenerate_request_raises(points, params):
    solution = commutant_nullspace(points[2], points["2b"], params, SANS_AFFINE)
    with pytest.raises(IntertwinerError):
        unique_intertwiner(solution)


def test_s_at_reflected_legs(points, params):
    kin2r = reflect_kinematics(points["1b"], params)
    S = solve_intertwiner(points[1], kin2r, params)
    assert max(intertwining_residual(S, points[1], kin2r, params).values()) < TOL_ALGEBRA


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
    assert ybe_residual(*kins, params) < TOL_COMPOSITE


def test_yang_baxter_full_m2_triple(params, kin_of):
    kins = [kin_of(2, xm) for xm in (0.9 - 1.1j, 1.4 + 0.5j, -1.1 - 0.7j)]
    assert ybe_residual(*kins, params) < TOL_COMPOSITE


def _s_form_ybe_residual(kins, params):
    """S23 S13 S12 = S12 S13 S23 on V1 (x) V2 (x) V3 with S = P_21 Ř, S13
    embedded on V1 (x) V3 (x) V2 and carried over by the graded flip."""
    spaces = [build_basis(k.M) for k in kins]
    s1, s2, s3 = spaces
    I1, I2, I3 = (np.eye(s.dim) for s in spaces)

    def S(i, j):  # P_21 Ř on V_i (x) V_j
        return graded_permutation(spaces[j], spaces[i]) @ solve_intertwiner(kins[i], kins[j], params)

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
    # the leg-wise braid relation equals the dense S-form YBE up to a signed
    # permutation; unequal legs would expose a wrong reshape
    xms = [1.3 + 0.8j, 0.9 - 1.1j, -0.8 + 1.2j]
    kins = [kin_of(M, xm) for M, xm in zip(Ms, xms)]
    assert abs(ybe_residual(*kins, params) - _s_form_ybe_residual(kins, params)) < 1e-13
