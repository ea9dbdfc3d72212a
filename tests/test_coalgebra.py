"""Two-leg operators, coproducts and the twisted boundary charges."""

from dataclasses import replace

import numpy as np
import pytest

from qab import coalgebra
from qab.coalgebra import (
    TWISTED_CHARGES,
    boundary_d_constants,
    coideal_expansion_check,
    coproduct,
    koszul_term,
    Leg,
    hom_check,
    twisted_boundary_charges,
    twisted_central_invariance,
    twisted_f1_action_residual,
    yangian_limit_probe,
)
from qab.kinematics import ModelParams, reflect_kinematics
from qab.numerics import TOL_ALGEBRA, qint, rel_residual
from qab.representation import (
    GENERATOR_PARITY,
    GENERATORS,
    GradedOperator,
    all_generators,
    build_basis,
    graded_commutator,
)

from conftest import dense, dense_coproduct, graded_permutation, graded_tensor, kin_at


def coproducts(leg1, leg2):
    """Every generator's coproduct on leg1 (x) leg2, the map the coalgebra
    suite builds."""
    return {g: coproduct(g, leg1, leg2) for g in GENERATORS}


def test_graded_permutation_squares_to_identity():
    s1, s2 = build_basis(1), build_basis(2)
    P12 = graded_permutation(s1, s2)
    P21 = graded_permutation(s2, s1)
    assert np.linalg.norm(P21 @ P12 - np.eye(s1.dim * s2.dim)) < 1e-14


def test_graded_tensor_koszul_sign(params, kin_of):
    # (1 (x) B)(A (x) 1) = (-1)^{|A||B|} A (x) B for odd A, B: in the dense
    # oracle and in the Kronecker terms, whose sum it is
    kin = kin_of(1, 1.3 + 0.8j)
    s = build_basis(1)
    ops = all_generators(kin, params, s)
    A, B = ops["E2"], ops["F4"]
    ident = type(A)(np.eye(s.dim, dtype=complex), 0)
    left = graded_tensor(ident, B, s, s) @ graded_tensor(A, ident, s, s)
    right = graded_tensor(A, B, s, s)
    assert np.linalg.norm(left.matrix + right.matrix) < 1e-13
    terms = koszul_term(ident, B, s) @ koszul_term(A, ident, s)
    assert terms.parity == 0
    assert np.array_equal(dense(koszul_term(A, B, s)), right.matrix)
    assert np.linalg.norm(terms.matrix + right.matrix) < 1e-13


@pytest.mark.parametrize("q", [1.1, 1.5, 1.2 * np.exp(0.4j)], ids=["q1.1", "q1.5", "q-complex"])
@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)], ids=str)
def test_coproduct_terms_sum_to_the_dense_coproduct(pair, q, params):
    # each coproduct is a TwoLeg of at most two Kronecker terms of one-leg
    # matrices, the Koszul sign folded into the first factor: their kron sum
    # is the dense graded_tensor coproduct bit for bit, in either leg order
    p = replace(params, q=q)
    leg1, leg2 = (Leg(kin_at(M, xm, p), p) for M, xm in zip(pair, (1.3 + 0.8j, 0.9 - 1.1j)))
    for a, b in ((leg1, leg2), (leg2, leg1)):
        for gen in GENERATORS:
            op = coproduct(gen, a, b)
            assert 1 <= len(op.a) == len(op.b) <= 2, gen
            assert op.a.shape[1:] == (a.space.dim,) * 2, gen
            assert op.b.shape[1:] == (b.space.dim,) * 2, gen
            assert op.parity == GENERATOR_PARITY[gen]
            assert np.array_equal(dense(op), dense_coproduct(gen, a, b).matrix), gen


@pytest.mark.parametrize("q", [1.1, 1.5, 1.2 * np.exp(0.4j)], ids=["q1.1", "q1.5", "q-complex"])
@pytest.mark.parametrize("pair", [(1, 2), (2, 1), (2, 2)], ids=str)
def test_two_leg_arithmetic_matches_the_dense_oracle(pair, q, params):
    # products, sums, scalar multiples, inverses, transposes, graded
    # commutators and the action on a matrix of two-leg rows, on the terms,
    # against the same operations on the dense coproducts
    p = replace(params, q=q)
    leg1, leg2 = (Leg(kin_at(M, xm, p), p) for M, xm in zip(pair, (1.3 + 0.8j, 0.9 - 1.1j)))
    d = coproducts(leg1, leg2)
    o = {g: dense_coproduct(g, leg1, leg2) for g in GENERATORS}
    rng = np.random.default_rng(1)
    T = rng.normal(size=(leg1.space.dim * leg2.space.dim, 3)) + 1j

    def close(x, y):
        assert rel_residual(x, y) <= 1e-14

    for g in GENERATORS:
        close(d[g].matrix, o[g].matrix)
        close(d[g] @ T, o[g].matrix @ T)
        close(d[g].T.matrix, o[g].matrix.T)
    for j in "1234":
        E, F, K = d["E" + j], d["F" + j], d["K" + j]
        oE, oF, oK = o["E" + j], o["F" + j], o["K" + j]
        assert (E @ F).parity == 0 and len((E @ F).a) == 4
        close((E @ F).matrix, (oE @ oF).matrix)
        close((E - 2.5j * F).matrix, (oE - 2.5j * oF).matrix)
        close((K @ E + E @ K).matrix, (oK @ oE + oE @ oK).matrix)
        close(K.inv().matrix, oK.inv().matrix)
        close(graded_commutator(E, F).matrix, graded_commutator(oE, oF).matrix)
    with pytest.raises(ValueError):
        d["E1"] + d["E2"]  # even plus odd
    with pytest.raises(ValueError):
        d["K1"].inv() - d["F4"]
    with pytest.raises(ValueError):
        d["E1"].inv()  # two terms
    with pytest.raises(ValueError):
        koszul_term(leg1.gens["E1"], leg2.gens["K1"], leg1.space).inv()  # not diagonal


def test_inverse_is_the_reciprocal_of_the_diagonal(params, kin_of):
    ops = all_generators(kin_of(2, 1.3 + 0.8j), params, build_basis(2))
    for gen in ("K1", "K2", "K3", "K4"):
        k = ops[gen].matrix
        assert np.allclose(ops[gen].inv().matrix @ k, np.eye(len(k)), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        ops["E1"].inv()  # even but not diagonal
    with pytest.raises(ValueError):
        GradedOperator(np.eye(8), 1).inv()  # odd


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, 2)], ids=str)
def test_coproduct_is_homomorphism(pair, params, kin_of):
    kin1 = kin_of(pair[0], 1.3 + 0.8j)
    kin2 = kin_of(pair[1], 0.9 - 1.1j)
    res = hom_check(coproducts(Leg(kin1, params), Leg(kin2, params)), params)
    assert max(res.values()) < TOL_ALGEBRA, res


def test_mixed_e2f4_relation_on_tensor_product(params, kin_of):
    # {Delta E2, Delta F4} = -gt/at (Delta K4 - (U1 U2)^2 Delta K2^-1)
    from qab.kinematics import derive_couplings

    kin1 = kin_of(1, 1.3 + 0.8j)
    kin2 = kin_of(1, 0.9 - 1.1j)
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    _, gt = derive_couplings(params.q, params.g)
    d = coproducts(leg1, leg2)
    lhs = graded_commutator(d["E2"], d["F4"])
    U12 = kin1.U * kin2.U
    rhs = (-gt / params.alpha_tilde) * (d["K4"] - U12**2 * d["K2"].inv())
    assert np.linalg.norm(lhs.matrix - rhs.matrix) < 1e-12


def test_d_constants(params):
    from qab.kinematics import derive_couplings

    _, gt = derive_couplings(params.q, params.g)
    d_y, d_x = boundary_d_constants(params)
    a, at = params.alpha, params.alpha_tilde
    assert abs(d_y - gt / (params.g * a * at)) < 1e-15
    assert abs(d_x + a * at * gt / params.g) < 1e-15


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, 2)], ids=str)
def test_coideal_expansions(pair, params, kin_of):
    kin1 = kin_of(pair[0], 1.3 + 0.8j)
    kin2 = kin_of(pair[1], 0.9 - 1.1j)
    leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
    res = coideal_expansion_check(leg1, leg2, coproducts(leg1, leg2), params)
    assert max(res.values()) < TOL_ALGEBRA, res


COIDEAL_QS = {"q1.1": 1.1, "q1.5": 1.5, "q-complex": 1.2 * np.exp(0.4j)}


@pytest.mark.parametrize("q", COIDEAL_QS.values(), ids=COIDEAL_QS.keys())
@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2)], ids=str)
def test_coideal_check_builds_only_the_charges_it_compares(pair, q, params, monkeypatch):
    # the check builds Et321 and Ft321 on V1 (x) V2 and on leg 2 alone, and
    # its residuals equal bit for bit those from all eight charges of the
    # joint coproducts and of leg 2
    p = replace(params, q=q)
    leg1, leg2 = Leg(kin_at(pair[0], 1.3 + 0.8j, p), p), Leg(kin_at(pair[1], 0.9 - 1.1j, p), p)
    dmap = coproducts(leg1, leg2)
    full = {id(ops): twisted_boundary_charges(ops, p) for ops in (dmap, leg2.gens)}
    calls = []

    def from_all_eight(ops, params):
        calls.append(id(ops))
        return full[id(ops)]["Et321"], full[id(ops)]["Ft321"]

    def refuse(*args):
        raise AssertionError("all eight twisted charges built")

    want = coideal_expansion_check(leg1, leg2, dmap, p)
    monkeypatch.setattr(coalgebra, "twisted_boundary_charges", refuse)
    assert coideal_expansion_check(leg1, leg2, dmap, p) == want
    monkeypatch.setattr(coalgebra, "level_one_charges", from_all_eight)
    assert coideal_expansion_check(leg1, leg2, dmap, p) == want
    assert sorted(calls) == sorted(full)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_twisted_f1_raising_action(M, params, kin_of):
    kin = kin_of(M, 1.3 + 0.8j)
    tw = twisted_boundary_charges(all_generators(kin, params, build_basis(M)), params)
    assert twisted_f1_action_residual(kin, tw, params) < TOL_ALGEBRA


def test_twisted_charges_exist_and_have_right_parity(params, kin_of):
    kin = kin_of(2, 0.9 - 1.1j)
    ops = all_generators(kin, params, build_basis(2))
    tw = twisted_boundary_charges(ops, params)
    assert set(tw) == set(TWISTED_CHARGES)
    for name in ("Et321", "Ft321", "Et21", "Ft21"):
        assert tw[name].parity == 1, name
    for name in ("Et1", "Ft1", "Ct2", "Ct3"):
        assert tw[name].parity == 0, name


@pytest.mark.parametrize("M", [1, 2, 3])
def test_twisted_centrals_diagonal_and_reflection_invariant(M, params, kin_of):
    kin = kin_of(M, 1.1 + 0.9j)
    tw = twisted_boundary_charges(all_generators(kin, params, build_basis(M)), params)
    out = twisted_central_invariance(kin, tw, params)
    for name, res in out.items():
        assert res["off_diagonal"] < TOL_ALGEBRA, name
        assert res["reflection_invariance"] < TOL_ALGEBRA, name


def test_twisted_charges_commute_with_reflection(params, kin_of):
    # charge built on the reflected leg equals the conjugated constraint the
    # K-matrix solver uses; sanity-check it stays finite and graded
    kin = kin_of(2, 1.3 + 0.8j)
    rkin = reflect_kinematics(kin, params)
    rops = all_generators(rkin, params, build_basis(2))
    tw = twisted_boundary_charges(rops, params)
    for name in TWISTED_CHARGES:
        assert np.all(np.isfinite(tw[name].matrix))


def test_yangian_limit_cauchy():
    qs = [1 + 1e-2, 1 + 1e-3, 1 + 1e-4]
    table = yangian_limit_probe(qs, 1.3 + 0.8j, 1, ModelParams(q=1.1, g=0.4))
    for name, row in table.items():
        assert np.isfinite(row["norms"][-1]), name
        # differences shrink by roughly the q - 1 step ratio
        assert row["diffs"][-1] < row["diffs"][0], name
        assert row["ratios"][-1] < 0.5, (name, row["ratios"])
