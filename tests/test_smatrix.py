"""S-matrix intertwiners: uniqueness, residuals, ablation, Yang-Baxter."""

import numpy as np
import pytest

from qab.coalgebra import Leg, coproduct, opposite_coproduct
from qab.kinematics import reflect_kinematics
from qab.numerics import TOL_ALGEBRA, TOL_COMPOSITE
from qab.smatrix import (
    DEFAULT_GENERATORS,
    SANS_AFFINE,
    IntertwinerError,
    commutant_nullspace,
    intertwiner_system,
    intertwining_residual,
    solve_intertwiner,
    unique_intertwiner,
    ybe_residual,
)
from qab.representation import build_basis


@pytest.fixture(scope="module")
def points(kin_of):
    return {
        1: kin_of(1, 1.3 + 0.8j),
        "1b": kin_of(1, 0.9 - 1.1j),
        2: kin_of(2, 0.9 - 1.1j),
        "2b": kin_of(2, 1.4 + 0.5j),
        3: kin_of(3, 1.1 + 0.9j),
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
    # S vanishes between states of different (H1, H3) joint weight
    S = solve_intertwiner(points[1], points["1b"], params)
    w = intertwiner_system(points[1], points["1b"], params)[1]
    for i in range(16):
        for j in range(16):
            if w[i] != w[j]:
                assert abs(S[i, j]) < 1e-14


def test_nullspace_vector_satisfies_full_equations(points, params):
    # independent of the solver's internal assembly: apply the coproduct
    # difference directly to the returned matrix
    S = solve_intertwiner(points[1], points["1b"], params)
    leg1 = Leg(points[1], params)
    leg2 = Leg(points["1b"], params)
    for gen in DEFAULT_GENERATORS:
        A = coproduct(gen, leg1, leg2).matrix
        B = opposite_coproduct(gen, leg1, leg2).matrix
        assert np.linalg.norm(S @ A - B @ S) < 1e-12, gen


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
