"""The shared null-space solver against dense references.

The reference stacks the full Kronecker system vec(X A - B X) = 0 over every
dim^2 unknown, with no weight support, no row selection and no rescaling,
and reads the null dimension off an SVD by a rank count.  The
weight-supported solve (weight_nullspace) must reproduce its null space, and
its spectral-gap verdict must call a system unique exactly when the rank
count finds one null vector; the commutant solve of the braided S-matrix Ř
(commutant_nullspace) must reproduce the weight-supported one, carried to
Ř's index sets by the graded flip, and every row that its reduced system
leaves out must be a multiple of one it keeps.
"""

from dataclasses import replace

import numpy as np
import pytest

from qab import smatrix
from qab.coalgebra import Leg, coproduct
from qab.harness import load_config, run_suite, sample_kinematics
from qab.kmatrix import (
    BOUNDARY_CHARGES,
    PRESERVED_CHARGES,
    boundary_system,
    closed_form_kmatrix,
    compare_kmatrices,
)
from qab.numerics import TOL_INTERTWINER, rel_residual
from qab.representation import build_basis
from qab.smatrix import (
    BOSONIC,
    DEFAULT_GENERATORS,
    FERMIONIC,
    NULL_GAP,
    SANS_AFFINE,
    adapted_bases,
    commutant_layout,
    commutant_nullspace,
    intertwiner_system,
    pair_residuals,
    product_weights,
    reduced_coproducts,
    spectral_gap,
    unique_intertwiner,
    weight_nullspace,
)

from conftest import (
    boundary_k,
    braided_s,
    dense,
    dense_coproduct,
    graded_permutation,
    kin_at,
    leg_commutant_nullspace,
    s_nullspace,
)

#: The reference's rank rule: singular values below this multiple of
#: max(shape) * eps * sigma_max count as zero.
_RANK_RTOL = 1e3


def _rank_null_dim(sv, shape) -> int:
    """The number of singular values ``sv`` of a system of ``shape`` that the
    rank rule counts as zero."""
    return int(np.sum(sv < max(shape) * np.finfo(float).eps * sv[0] * _RANK_RTOL))


def _unique(sv) -> bool:
    """The solver's verdict: a spectral gap sigma_1 / sigma_2 <= NULL_GAP."""
    return spectral_gap(sv) <= NULL_GAP


def _kronecker_nullspace(pairs):
    """(singular values, null dimension, orthonormal null basis as flattened
    dim x dim matrices) of the full Kronecker system, by the rank rule."""
    dim = pairs[0][0].shape[0]
    ident = np.eye(dim)
    # row-major vec: vec(X A - B X) = (kron(I, A^T) - kron(B, I)) vec(X)
    R = np.vstack([np.kron(ident, A.T) - np.kron(B, ident) for A, B in pairs])
    _, sv, vh = np.linalg.svd(R, full_matrices=False)
    null_dim = _rank_null_dim(sv, R.shape)
    return sv, null_dim, vh[len(vh) - null_dim:].conj().T


def _dense_null_vector(pairs):
    """The null vector of the full Kronecker system, scaled to 1 at [0, 0]."""
    dim = pairs[0][0].shape[0]
    sv, null_dim, basis = _kronecker_nullspace(pairs)
    assert null_dim == 1 and sv[-1] < 1e-12 * sv[0] < sv[-2]
    X = basis[:, 0].reshape(dim, dim)
    return X / X[0, 0]


@pytest.mark.parametrize("M", range(1, 9))
def test_anchor_is_basis_index_0(M):
    # unique_intertwiner normalizes S and K at [0, 0]: the state |0,0,0,M>
    assert build_basis(M).states[0] == (0, 0, 0, M)


def test_smatrix_matches_dense_reference(kin_of, params):
    kin1, kin2 = kin_of(1, 1.3 + 0.8j), kin_of(1, 0.9 - 1.1j)
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    pairs = [
        (dense_coproduct(g, leg1, leg2).matrix, dense_coproduct(g, leg2, leg1).matrix)
        for g in DEFAULT_GENERATORS
    ]
    R = unique_intertwiner(commutant_nullspace(kin1, kin2, params))
    assert R[0, 0] == 1
    assert rel_residual(R, _dense_null_vector(pairs)) < 1e-12


@pytest.mark.parametrize("M", [2, 3])
def test_kmatrix_matches_dense_reference(M, params_gammas):
    kin = kin_at(M, 0.9 - 1.1j, params_gammas)
    pairs = boundary_system(kin, params_gammas)[0]
    K = boundary_k(kin, params_gammas)
    assert K[0, 0] == 1
    assert rel_residual(K, _dense_null_vector(pairs)) < 1e-12


def test_kmatrix_solve_at_m8(params_gammas):
    # the dense system at M = 8 has 16384 rows x 1024 unknowns; the
    # weight-supported one stays small
    kin = kin_at(8, 1.4 + 0.6j, params_gammas)
    pairs, weights = boundary_system(kin, params_gammas)
    solution = weight_nullspace(pairs, weights)
    assert _unique(solution[1])
    Ks = unique_intertwiner(solution)
    assert compare_kmatrices(closed_form_kmatrix(kin, params_gammas), Ks) < TOL_INTERTWINER
    assert not _unique(weight_nullspace(pairs[:len(PRESERVED_CHARGES)], weights)[1])


def _s_points(params, Ms):
    return kin_at(Ms[0], 1.3 + 0.8j, params), kin_at(Ms[1], 0.9 - 1.1j, params)


def _k_system(params, M, charges):
    """The boundary system at one point of bound-state number M, over
    ``charges``: BOUNDARY_CHARGES or its leading PRESERVED_CHARGES."""
    assert charges == BOUNDARY_CHARGES[:len(charges)]
    pairs, weights = boundary_system(kin_at(M, 1.4 + 0.6j, params), params)
    return pairs[:len(charges)], weights


SYSTEMS = {
    **{f"S{Ms}{tag}": ("S", Ms, DEFAULT_GENERATORS, q)
       for q, tag in [(1.1, ""), (1.5, "-q1.5")]
       for Ms in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]},
    **{f"S(2, 2)-sans-affine{tag}": ("S", (2, 2), SANS_AFFINE, q)
       for q, tag in [(1.1, ""), (1.5, "-q1.5")]},
    **{f"K{M}": ("K", M, BOUNDARY_CHARGES, 1.1) for M in range(1, 7)},
    **{f"K{M}-preserved": ("K", M, PRESERVED_CHARGES, 1.1) for M in range(1, 7)},
}


@pytest.mark.parametrize("kind,size,generators,q", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_solver_matches_dense_qr_svd(kind, size, generators, q, params_gammas):
    params_gammas = replace(params_gammas, q=q)
    if kind == "S":
        # the commutant solve of Ř against the weight-supported dense solve of
        # S = P_21 Ř, which maps V1 (x) V2 to itself: S Delta_12 = Delta^op S
        kins = _s_points(params_gammas, size)
        leg1, leg2 = (Leg(kin, params_gammas) for kin in kins)
        s1, s2 = leg1.space, leg2.space
        P12, P21 = graded_permutation(s1, s2), graded_permutation(s2, s1)
        pairs = intertwiner_system(leg1, leg2, generators)
        X, sv, (rows, unknowns) = weight_nullspace(
            [(dense(A), P21 @ dense(B) @ P12) for A, B in pairs], product_weights(s1, s2)
        )
        R, svc, (rows_c, unknowns_c) = commutant_nullspace(*kins, params_gammas, generators)
        # the rank rule on the weight-supported system is the reference here
        unique = _rank_null_dim(sv, (rows, unknowns)) == 1
        assert _unique(sv) == _unique(svc) == unique
        assert unknowns_c < unknowns and rows_c < rows
        if unique:
            # the unit null vectors agree up to phase; scaling both to 1 at
            # [0, 0] would inflate their angle by ||X|| / |X[0, 0]|
            s, x = ((Y / np.linalg.norm(Y)).ravel() for Y in (P21 @ R, X))
            assert np.linalg.norm(s - x * np.vdot(x, s)) < 1e-13
        else:
            # any unit vector of the null space will do: it must solve the system
            assert max(pair_residuals(R / np.linalg.norm(R), pairs)) < 1e-12
        assert list(svc) == sorted(svc, reverse=True)
        return
    # the weight-supported dense solve of K against the full Kronecker system
    pairs, weights = _k_system(params_gammas, size, generators)
    X, sv, _ = weight_nullspace(pairs, weights)
    _, null_dim_o, basis = _kronecker_nullspace(pairs)
    assert _unique(sv) == (null_dim_o == 1)
    x = X.ravel()
    assert np.linalg.norm(x - basis @ (basis.conj().T @ x)) < 1e-12
    assert list(sv) == sorted(sv, reverse=True)


def _isotypic_layout(bases):
    """From the labels and the support alone: the full indices of each
    reduced index (lambda, copy), by position, and the reduced indices of
    each lambda."""
    ui, _, ki, kj = bases.support
    positions = {k: ui[(ki == k) & (kj == k)] for k in range(len(bases.labels))}
    groups = [np.flatnonzero((bases.labels == lam).all(axis=1))
              for lam in np.unique(bases.labels, axis=0)]
    return positions, groups


@pytest.mark.parametrize("q", [1.1, 1.5])
@pytest.mark.parametrize("Ms", [(2, 2), (3, 3), (2, 4)], ids=str)
def test_reduced_rows_are_multiples_of_the_kept_ones(Ms, q, params):
    # in the adapted bases each block (mu, lambda) of V^-1 Delta(J) V is
    # a_red (x) a position pattern, the same pattern for Delta_12 and
    # Delta_21: every position pair's equations are a multiple of those at
    # the kept pair, and reduced_matrix holds the kept entries; blocks with
    # no kept pair vanish
    params = replace(params, q=q)
    kin1, kin2 = _s_points(params, Ms)
    V12, V21 = adapted_bases(*Ms, q), adapted_bases(*Ms[::-1], q)
    positions, groups = _isotypic_layout(V12)
    pairs = intertwiner_system(Leg(kin1, params), Leg(kin2, params), FERMIONIC)
    for gen, (A, B) in zip(FERMIONIC, pairs):
        Y12, Y21 = V12.V_inv @ dense(A) @ V12.V, V21.V_inv @ dense(B) @ V21.V
        A_red, B_red = V12.reduced_matrix(gen, A), V21.reduced_matrix(gen, B)
        i, j, rows, cols, ri, ci = V12.pairs[gen]
        scale = max(np.abs(Y12).max(), np.abs(Y21).max())
        kept_blocks = 0
        for mu in groups:
            r_of = np.array([positions[b] for b in mu])  # copy x position
            for lam in groups:
                p_of = np.array([positions[a] for a in lam])
                shape = (len(mu), r_of.shape[1], len(lam), p_of.shape[1])
                block = np.stack([
                    Y[np.ix_(r_of.ravel(), p_of.ravel())].reshape(shape).transpose(0, 2, 1, 3)
                    for Y in (Y12, Y21)
                ])  # side, beta, alpha, r, p
                kept = np.isin(i, mu) & np.isin(j, lam)
                if not kept.any():
                    assert np.abs(block).max() <= 1e-10 * scale, (gen, mu, lam)
                    continue
                kept_blocks += 1
                (r,), (p,) = ({np.argwhere(r_of == x)[0, 1] for x in rows[ri[kept]]},
                              {np.argwhere(p_of == x)[0, 1] for x in cols[ci[kept]]})
                key = block[..., r, p]
                assert np.abs(key).max() > 1e-3 * np.abs(block).max(), (gen, mu, lam)
                for X_red, side in ((A_red, 0), (B_red, 1)):
                    assert np.allclose(X_red[np.ix_(mu, lam)], key[side], rtol=0, atol=1e-12 * scale)
                t = np.tensordot(key.conj(), block, 3) / np.vdot(key, key)
                rest = block - key[..., None, None] * t
                assert np.abs(rest).max() <= 1e-10 * np.abs(block).max(), (gen, mu, lam)
        assert kept_blocks > 0


@pytest.mark.parametrize("q", [1.1, 1.5])
@pytest.mark.parametrize("Ms", [(1, 2), (2, 2), (3, 2)], ids=str)
def test_reduced_matrix_of_terms_is_the_dense_conjugate_at_the_kept_pairs(Ms, q, params):
    # reduced_matrix applies the coproduct's terms to V[:, cols] by reshape;
    # its entries are those of the dense V^-1 Delta V at the position pairs
    params = replace(params, q=q)
    legs = [Leg(kin, params) for kin in _s_points(params, Ms)]
    for a, b in (legs, legs[::-1]):
        bases = adapted_bases(a.space.M, b.space.M, q)
        for gen in FERMIONIC:
            Y = bases.V_inv @ dense_coproduct(gen, a, b).matrix @ bases.V
            i, j, rows, cols, ri, ci = bases.pairs[gen]
            expected = np.zeros((len(bases.labels),) * 2, dtype=complex)
            expected[i, j] = Y[rows[ri], cols[ci]]
            X = bases.reduced_matrix(gen, coproduct(gen, a, b))
            assert np.abs(X - expected).max() <= 1e-13 * np.abs(Y).max(), (Ms, gen)


#: q real and complex, for the cached pieces against the full coproducts.
PIECE_QS = {"q1.1": 1.1, "q1.5": 1.5, "q-complex": 1.2 * np.exp(0.4j)}
SMALL_PAIRS = [(M1, M2) for M1 in (1, 2, 3) for M2 in (1, 2, 3)]


@pytest.mark.parametrize("q", PIECE_QS.values(), ids=PIECE_QS.keys())
@pytest.mark.parametrize("Ms", SMALL_PAIRS, ids=str)
def test_reduced_pieces_give_the_reduced_full_coproducts(Ms, q, params_gammas):
    # every supercharge's reduced matrix, contracted from the cached pieces
    # with four coefficients, is reduced_matrix of the coproduct's terms at
    # the two points, in either leg order
    p = replace(params_gammas, q=q)
    kins = _s_points(p, Ms)
    legs = [Leg(kin, p) for kin in kins]
    for got, (la, lb) in zip(reduced_coproducts(*kins, p, FERMIONIC), (legs, legs[::-1])):
        bases = adapted_bases(la.space.M, lb.space.M, q)
        for X, gen in zip(got, FERMIONIC):
            Y = bases.reduced_matrix(gen, coproduct(gen, la, lb))
            assert np.linalg.norm(X - Y) <= 1e-13 * np.linalg.norm(Y), (Ms, gen)


@pytest.mark.parametrize("q", PIECE_QS.values(), ids=PIECE_QS.keys())
@pytest.mark.parametrize("Ms", SMALL_PAIRS, ids=str)
def test_cached_commutant_solve_matches_the_leg_oracle(Ms, q, params_gammas):
    # the cached layout has the oracle's rows and unknowns for both
    # generator sets, the same verdict, and the same unique Ř
    p = replace(params_gammas, q=q)
    kins = _s_points(p, Ms)
    legs = [Leg(kin, p) for kin in kins]
    for generators in (DEFAULT_GENERATORS, SANS_AFFINE):
        R, sv, shape = commutant_nullspace(*kins, p, generators)
        R_o, sv_o, shape_o = leg_commutant_nullspace(*legs, q, generators)
        assert shape == shape_o and _unique(sv) == _unique(sv_o), (Ms, generators)
        if generators == DEFAULT_GENERATORS:
            assert _unique(sv)
            s, x = ((Y / np.linalg.norm(Y)).ravel() for Y in (R, R_o))
            assert np.linalg.norm(s - x * np.vdot(x, s)) < 1e-12, Ms


@pytest.mark.parametrize("generators, want", [
    (DEFAULT_GENERATORS, {"bulk": 2, "affine": 2}), (SANS_AFFINE, {"bulk": 2, "affine": 0}),
], ids=["default", "sans-affine"])
def test_s_solve_evaluates_each_points_labels_once(generators, want, params, monkeypatch):
    # both leg orders of a solve share one evaluation of each point's bulk
    # and affine labels; the ablation set needs no affine ones
    calls = {"bulk": 0, "affine": 0}
    for kind in calls:
        real = getattr(smatrix, f"{kind}_labels")

        def counted(kin, p, _kind=kind, _real=real):
            calls[_kind] += 1
            return _real(kin, p)

        monkeypatch.setattr(smatrix, f"{kind}_labels", counted)
    commutant_nullspace(kin_at(2, 1.3 + 0.8j, params), kin_at(3, 0.9 - 1.1j, params), params,
                        generators)
    assert calls == want


def test_commutant_layout_is_built_once_per_key(params):
    # one layout per (M1, M2, q, generators), whatever the points
    commutant_layout.cache_clear()
    p15 = replace(params, q=1.5)
    for xm in (1.3 + 0.8j, -0.7 + 1.6j, 0.4 + 1.9j):
        for p in (params, p15):
            for Ms in ((2, 3), (3, 2)):
                kins = kin_at(Ms[0], xm, p), kin_at(Ms[1], 0.9 - 1.1j, p)
                for generators in (DEFAULT_GENERATORS, SANS_AFFINE):
                    commutant_nullspace(*kins, p, generators)
    info = commutant_layout.cache_info()
    assert info.misses == info.currsize == 8 and info.hits == 16


def test_affine_ablation_needs_two_bound_states(params):
    # the affine supercharges fix S only when both bound-state numbers are
    # >= 2; with an M = 1 factor the bosonic and bulk generators suffice
    for Ms, degenerate in [((2, 2), True), ((3, 3), True), ((3, 2), True),
                           ((1, 1), False), ((1, 3), False), ((3, 1), False)]:
        sv = s_nullspace(*_s_points(params, Ms), params, SANS_AFFINE)[1]
        assert _unique(sv) != degenerate, Ms


def test_commutant_needs_the_bosonic_generators(params):
    with pytest.raises(ValueError):
        s_nullspace(*_s_points(params, (1, 1)), params, ("E2", "F2", "E4", "F4"))


def test_cached_bases_carry_no_kinematics(params):
    # bases built from the coproducts at two kinematic points are the cached
    # ones of each leg order, bit for bit; a solve builds one basis per
    # ordered pair, so (2, 3) misses the cache twice and (3, 3) once
    M1, M2 = 2, 3
    for xm1, xm2 in [(1.3 + 0.8j, 0.9 - 1.1j), (-0.7 + 1.6j, 1.2 + 0.4j)]:
        leg1 = Leg(kin_at(M1, xm1, params), params)
        leg2 = Leg(kin_at(M2, xm2, params), params)
        for a, b in [(leg1, leg2), (leg2, leg1)]:
            cached = adapted_bases(a.space.M, b.space.M, params.q)
            built = smatrix._adapted_basis(
                {g: coproduct(g, a, b) for g in BOSONIC},
                product_weights(a.space, b.space), params.q,
            )
            for x, y in [(built.V, cached.V), (built.V_inv, cached.V_inv),
                         (built.labels, cached.labels)]:
                assert np.array_equal(x, y)
            for x, y in [(built.support, cached.support),
                         *((built.pairs[g], cached.pairs[g]) for g in FERMIONIC)]:
                assert all(np.array_equal(u, v) for u, v in zip(x, y))
    for Ms, misses in [((M1, M2), 2), ((M2, M2), 1)]:
        adapted_bases.cache_clear()
        for xm in (1.3 + 0.8j, -0.7 + 1.6j):
            braided_s(kin_at(Ms[0], xm, params), kin_at(Ms[1], 0.9 - 1.1j, params), params)
        assert adapted_bases.cache_info().misses == misses, Ms


def test_smatrix_suite_builds_each_basis_once():
    # qab smatrix --M 1,2,3,4 solves 16 ordered pairs, each with the bases of
    # both leg orders: every basis is built once and none is evicted
    adapted_bases.cache_clear()
    run_suite("smatrix", load_config(data={"M": [1, 2, 3, 4]}))
    info = adapted_bases.cache_info()
    assert info.misses == info.currsize == 16


def test_adapted_bases_block_diagonalise_the_bosonic_coproducts(params):
    # V_21^-1 Delta_21(X) V_21 and V_12^-1 Delta_12(X) V_12 are the same
    # matrix for every bosonic X, so C = c (x) I intertwines them; the two
    # bases share their labels and support, and cond(V) stays small
    for M1, M2 in [(3, 3), (2, 3)]:
        V12, V21 = adapted_bases(M1, M2, params.q), adapted_bases(M2, M1, params.q)
        leg1, leg2 = Leg.bosonic(M1, params.q), Leg.bosonic(M2, params.q)
        for g in BOSONIC:
            a = V12.V_inv @ dense_coproduct(g, leg1, leg2).matrix @ V12.V
            b = V21.V_inv @ dense_coproduct(g, leg2, leg1).matrix @ V21.V
            assert np.abs(a - b).max() < 1e-12, (M1, M2, g)
        for bases in (V12, V21):
            assert np.abs(bases.V_inv @ bases.V - np.eye(len(bases.V))).max() < 1e-13
            assert bases.cond_V < 10
        assert np.array_equal(V12.labels, V21.labels)
        assert all(np.array_equal(x, y) for x, y in zip(V12.support, V21.support))
    # sum mult(lambda)^2 = 42 M - 36 unknowns for V_M (x) V_M from M = 3 on
    _, mult = np.unique(adapted_bases(3, 3, params.q).labels, axis=0, return_counts=True)
    assert (mult**2).sum() == 42 * 3 - 36


@pytest.mark.parametrize("Ms", [(2, 3), (3, 3)], ids=str)
def test_label_supported_c_red_intertwines_the_bosonic_coproducts(Ms, params):
    # any C_red that joins only reduced indices of equal label, expanded
    # through the support, is a sum of c_lambda (x) I, so V_21 C V_12^-1
    # intertwines Delta_12(X) with Delta_21(X) for every bosonic X
    V12, V21 = adapted_bases(*Ms, params.q), adapted_bases(*Ms[::-1], params.q)
    leg1, leg2 = Leg.bosonic(Ms[0], params.q), Leg.bosonic(Ms[1], params.q)
    pairs = [(dense_coproduct(g, leg1, leg2).matrix, dense_coproduct(g, leg2, leg1).matrix)
             for g in BOSONIC]
    same = (V12.labels[:, None] == V12.labels[None, :]).all(axis=-1)
    ui, uj, ki, kj = V12.support
    rng = np.random.default_rng(0)
    for _ in range(3):
        C_red = np.where(same, rng.normal(size=same.shape) + 1j * rng.normal(size=same.shape), 0)
        C = np.zeros_like(V12.V)
        C[ui, uj] = C_red[ki, kj]
        assert max(pair_residuals(V21.V @ C @ V12.V_inv, pairs)) < 1e-12, Ms


def test_solver_is_deterministic(params_gammas):
    pairs, weights = _k_system(params_gammas, 4, PRESERVED_CHARGES)
    kin1, kin2 = _s_points(params_gammas, (2, 2))
    X1 = weight_nullspace(pairs, weights)[0]
    S1 = s_nullspace(kin1, kin2, params_gammas)[0]
    s_nullspace(*_s_points(params_gammas, (3, 2)), params_gammas)
    weight_nullspace(*_k_system(params_gammas, 3, BOUNDARY_CHARGES))
    assert np.array_equal(weight_nullspace(pairs, weights)[0], X1)
    assert np.array_equal(s_nullspace(kin1, kin2, params_gammas)[0], S1)


def test_gap_does_not_move_with_the_scale_of_a_generator(params_gammas):
    # each generator's equations are put on one scale, so multiplying one
    # pair by 1e8 leaves the gap and the solution where they were
    pairs, weights = _k_system(params_gammas, 4, BOUNDARY_CHARGES)
    X, sv, _ = weight_nullspace(pairs, weights)
    (A, B), rest = pairs[0], pairs[1:]
    Y, sv_scaled, _ = weight_nullspace([(1e8 * A, 1e8 * B), *rest], weights)
    assert 0.5 < spectral_gap(sv_scaled) / spectral_gap(sv) < 2
    K = unique_intertwiner((X, sv, None))
    assert rel_residual(unique_intertwiner((Y, sv_scaled, None)), K) < 1e-13


def test_unique_and_ablated_gaps_keep_their_margin(params):
    # sampled points of the default couplings: unique systems sit at least
    # three decades below NULL_GAP and ablated ones two above
    for index, Ms in enumerate([(2, 2), (2, 3), (3, 2)]):
        rng = np.random.default_rng([1, index])
        kins = [sample_kinematics(M, params, rng) for M in Ms]
        assert spectral_gap(commutant_nullspace(*kins, params)[1]) <= 1e-9, Ms
        ablated = commutant_nullspace(*kins, params, SANS_AFFINE)[1]
        assert spectral_gap(ablated) >= 1e-4, Ms
    for M in (2, 3, 4, 6):
        kin = sample_kinematics(M, params, np.random.default_rng([1, 100 + M]))
        pairs, weights = boundary_system(kin, params)
        assert spectral_gap(weight_nullspace(pairs, weights)[1]) <= 1e-9, M
        ablated = weight_nullspace(pairs[:len(PRESERVED_CHARGES)], weights)[1]
        assert spectral_gap(ablated) >= 1e-4, M
