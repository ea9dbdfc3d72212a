"""The shared weight-supported null-space solver against dense references.

One reference stacks the full Kronecker system vec(X A - B X) = 0 over every
dim^2 unknown, with no weight support and no row selection, and takes the
last right singular vector of a full SVD.  The other is the dense solver the
sparse one replaced: the same weight-supported system, made dense, with a QR
and an SVD of its triangular factor.  The solver must reproduce the
normalized null vector, the null dimension and the singular values it reports.
"""

import numpy as np
import pytest

from qab.coalgebra import Leg, coproduct, opposite_coproduct
from qab.kmatrix import (
    BOUNDARY_CHARGES,
    PRESERVED_CHARGES,
    boundary_system,
    closed_form_kmatrix,
    compare_kmatrices,
    solve_boundary_intertwiner,
)
from qab.numerics import TOL_INTERTWINER, rel_residual
from qab.representation import build_basis
from qab.smatrix import (
    DEFAULT_GENERATORS,
    SANS_AFFINE,
    _NULL_RTOL,
    intertwiner_system,
    solve_intertwiner,
    weight_nullspace,
)

from conftest import kin_at


def _dense_null_vector(pairs):
    """The null vector of the full Kronecker system, scaled to 1 at [0, 0]."""
    dim = pairs[0][0].shape[0]
    ident = np.eye(dim)
    # row-major vec: vec(X A - B X) = (kron(I, A^T) - kron(B, I)) vec(X)
    R = np.vstack([np.kron(ident, A.T) - np.kron(B, ident) for A, B in pairs])
    _, sv, vh = np.linalg.svd(R)
    assert sv[-1] < 1e-12 * sv[0] < sv[-2]
    X = vh[-1].conj().reshape(dim, dim)
    return X / X[0, 0]


@pytest.mark.parametrize("M", range(1, 9))
def test_anchor_is_basis_index_0(M):
    # unique_intertwiner normalizes S and K at [0, 0]: the state |0,0,0,M>
    assert build_basis(M).states[0] == (0, 0, 0, M)


def test_smatrix_matches_dense_reference(kin_of, params):
    kin1, kin2 = kin_of(1, 1.3 + 0.8j), kin_of(1, 0.9 - 1.1j)
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    pairs = [
        (coproduct(g, leg1, leg2).matrix, opposite_coproduct(g, leg1, leg2).matrix)
        for g in DEFAULT_GENERATORS
    ]
    S = solve_intertwiner(kin1, kin2, params)
    assert S[0, 0] == 1
    assert rel_residual(S, _dense_null_vector(pairs)) < 1e-12


@pytest.mark.parametrize("M", [2, 3])
def test_kmatrix_matches_dense_reference(M, params_gammas):
    kin = kin_at(M, 0.9 - 1.1j, params_gammas)
    pairs = boundary_system(kin, params_gammas)[0]
    K = solve_boundary_intertwiner(kin, params_gammas)
    assert K[0, 0] == 1
    assert rel_residual(K, _dense_null_vector(pairs)) < 1e-12


def test_kmatrix_solve_at_m8(params_gammas):
    # the dense system at M = 8 has 16384 rows x 1024 unknowns; the
    # weight-supported one stays small
    kin = kin_at(8, 1.4 + 0.6j, params_gammas)
    Ks = solve_boundary_intertwiner(kin, params_gammas)
    assert weight_nullspace(*boundary_system(kin, params_gammas))[2] == 1
    assert compare_kmatrices(closed_form_kmatrix(kin, params_gammas), Ks) < TOL_INTERTWINER
    assert weight_nullspace(*boundary_system(kin, params_gammas, PRESERVED_CHARGES))[2] >= 2


def _dense_weight_nullspace(pairs, weights):
    """The weight-supported system assembled dense, then QR and a full SVD of
    its triangular factor (oracle).  Returns (X, sv, null_dim, shape, basis),
    the columns of basis being an orthonormal basis of the null space as
    flattened dim x dim matrices."""
    w = np.asarray(weights)
    dim = len(w)
    ui, uj = np.nonzero((w[:, None, :] == w[None, :, :]).all(axis=-1))
    rows, cols, vals = [], [], []
    for p, (A, B) in enumerate(pairs):
        u, b = np.nonzero(A[uj])
        rows.append((p * dim + ui[u]) * dim + b)
        cols.append(u)
        vals.append(A[uj[u], b])
        u, a = np.nonzero(B[:, ui].T)
        rows.append((p * dim + a) * dim + uj[u])
        cols.append(u)
        vals.append(-B[a, ui[u]])
    row_ids, rows = np.unique(np.concatenate(rows), return_inverse=True)
    R = np.zeros((len(row_ids), len(ui)), dtype=complex)
    np.add.at(R, (rows, np.concatenate(cols)), np.concatenate(vals))
    _, sv, vh = np.linalg.svd(np.linalg.qr(R, mode="r"))
    thresh = max(R.shape) * np.finfo(float).eps * sv[0] * _NULL_RTOL
    null_dim = R.shape[1] - int(np.sum(sv >= thresh))
    basis = np.zeros((dim * dim, null_dim), dtype=complex)
    basis[ui * dim + uj] = vh[len(vh) - null_dim:].conj().T
    return basis[:, -1].reshape(dim, dim), sv, null_dim, R.shape, basis


def _s_system(params, Ms, generators):
    kin1, kin2 = kin_at(Ms[0], 1.3 + 0.8j, params), kin_at(Ms[1], 0.9 - 1.1j, params)
    return intertwiner_system(kin1, kin2, params, generators)


def _k_system(params, M, charges):
    return boundary_system(kin_at(M, 1.4 + 0.6j, params), params, charges)


SYSTEMS = {
    **{f"S{Ms}": (_s_system, Ms, DEFAULT_GENERATORS) for Ms in [(1, 1), (1, 2), (2, 1), (2, 2)]},
    "S(2, 2)-sans-affine": (_s_system, (2, 2), SANS_AFFINE),
    **{f"K{M}": (_k_system, M, BOUNDARY_CHARGES) for M in range(1, 7)},
    **{f"K{M}-preserved": (_k_system, M, PRESERVED_CHARGES) for M in range(1, 7)},
}


@pytest.mark.parametrize("system,size,generators", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_solver_matches_dense_qr_svd(system, size, generators, params_gammas):
    pairs, weights = system(params_gammas, size, generators)
    X, sv, null_dim, shape = weight_nullspace(pairs, weights)
    Xo, svo, null_dim_o, shape_o, basis = _dense_weight_nullspace(pairs, weights)
    assert (null_dim, shape) == (null_dim_o, shape_o)
    if null_dim == 1:
        assert rel_residual(X / X[0, 0], Xo / Xo[0, 0]) < 1e-12
    else:
        # any unit vector of the null space will do: it must lie in the oracle's
        x = X.ravel()
        assert np.linalg.norm(x - basis @ (basis.conj().T @ x)) < 1e-12
    assert abs(sv[0] / svo[0] - 1) < 1e-3
    assert abs(sv[-2] / sv[0] - svo[-2] / svo[0]) < 1e-6
    assert list(sv) == sorted(sv, reverse=True)


def test_solver_is_deterministic(params_gammas):
    first = _s_system(params_gammas, (2, 2), DEFAULT_GENERATORS)
    other = _k_system(params_gammas, 4, PRESERVED_CHARGES)
    X1 = weight_nullspace(*first)[0]
    weight_nullspace(*other)
    assert np.array_equal(weight_nullspace(*first)[0], X1)
