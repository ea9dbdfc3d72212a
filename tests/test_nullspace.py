"""The shared weight-supported null-space solver against a dense reference.

The reference stacks the full Kronecker system vec(X A - B X) = 0 over every
dim^2 unknown, with no weight support and no row selection, and takes the
last right singular vector of a full SVD.  The solver must reproduce its
normalized null vector for S and for K.
"""

import numpy as np
import pytest

from qab.coalgebra import Leg, coproduct, opposite_coproduct
from qab.kmatrix import (
    BOUNDARY_CHARGES,
    PRESERVED_CHARGES,
    _charge_pairs,
    boundary_nullspace,
    closed_form_kmatrix,
    compare_kmatrices,
    solve_boundary_intertwiner,
)
from qab.numerics import TOL_INTERTWINER, rel_residual
from qab.smatrix import DEFAULT_GENERATORS, solve_intertwiner

from conftest import kin_at


def _dense_null_vector(pairs, anchor):
    dim = pairs[0][0].shape[0]
    ident = np.eye(dim)
    # row-major vec: vec(X A - B X) = (kron(I, A^T) - kron(B, I)) vec(X)
    R = np.vstack([np.kron(ident, A.T) - np.kron(B, ident) for A, B in pairs])
    _, sv, vh = np.linalg.svd(R)
    assert sv[-1] < 1e-12 * sv[0] < sv[-2]
    X = vh[-1].conj().reshape(dim, dim)
    return X / X[anchor, anchor]


def test_smatrix_matches_dense_reference(kin_of, params):
    kin1, kin2 = kin_of(1, 1.3 + 0.8j), kin_of(1, 0.9 - 1.1j)
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    pairs = [
        (coproduct(g, leg1, leg2).matrix, opposite_coproduct(g, leg1, leg2).matrix)
        for g in DEFAULT_GENERATORS
    ]
    anchor = leg1.space.index[(0, 0, 0, 1)] * leg2.space.dim + leg2.space.index[(0, 0, 0, 1)]
    S = solve_intertwiner(kin1, kin2, params)
    assert rel_residual(S.matrix, _dense_null_vector(pairs, anchor)) < 1e-12


@pytest.mark.parametrize("M", [2, 3])
def test_kmatrix_matches_dense_reference(M, params_gammas):
    kin = kin_at(M, 0.9 - 1.1j, params_gammas)
    space, pairs = _charge_pairs(kin, params_gammas, BOUNDARY_CHARGES)
    K = solve_boundary_intertwiner(kin, params_gammas)
    ref = _dense_null_vector(pairs, space.families[1][0])
    assert rel_residual(K.operator.matrix, ref) < 1e-12


def test_kmatrix_solve_at_m8(params_gammas):
    # the dense system at M = 8 has 16384 rows x 1024 unknowns; the
    # weight-supported one stays small
    kin = kin_at(8, 1.4 + 0.6j, params_gammas)
    Ks = solve_boundary_intertwiner(kin, params_gammas)
    assert Ks.null_dim == 1
    assert compare_kmatrices(closed_form_kmatrix(kin, params_gammas), Ks) < TOL_INTERTWINER
    assert boundary_nullspace(kin, params_gammas, PRESERVED_CHARGES)[2] >= 2
