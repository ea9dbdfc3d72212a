"""Bound-state module: basis layout, generator actions, defining relations."""

import mpmath
import numpy as np
import pytest

from qab import representation
from qab.kinematics import (
    ModelParams,
    affine_labels,
    bulk_labels,
    make_kinematics,
    on_shell,
    solve_shortening,
)
from qab.numerics import TOL_ALGEBRA, log, qint
from qab.representation import (
    GENERATOR_PARITY,
    GENERATORS,
    GradedOperator,
    all_generators,
    build_basis,
    graded_commutator,
    identity_operator,
    quartic_serre_lhs,
    verify_algebra,
)


def test_basis_dimensions_and_layout():
    for M in (1, 2, 3, 4):
        space = build_basis(M)
        assert space.dim == 4 * M
        assert len(space.families[1]) == M + 1
        assert len(space.families[2]) == M - 1
        assert len(space.families[3]) == M
        assert len(space.families[4]) == M
        for m, n, k, l in space.states:
            assert m + n + k + l == M


def test_basis_parities():
    space = build_basis(2)
    # families 1, 2 bosonic; 3, 4 fermionic
    for i in space.families[1] + space.families[2]:
        assert space.parities[i] == 0
    for i in space.families[3] + space.families[4]:
        assert space.parities[i] == 1


def test_generator_parities():
    assert GENERATOR_PARITY["E1"] == 0 and GENERATOR_PARITY["E3"] == 0
    assert GENERATOR_PARITY["E2"] == 1 and GENERATOR_PARITY["E4"] == 1
    assert GENERATOR_PARITY["F2"] == 1 and GENERATOR_PARITY["F4"] == 1


def test_parity_zero_patterns(params, kin_of):
    kin = kin_of(2, 1.3 + 0.8j)
    space = build_basis(2)
    ops = all_generators(kin, params, space)
    for name, op in ops.items():
        assert op.parity_pattern_residual(space.parities) < 1e-14, name


def test_cartan_generators_diagonal(params, kin_of):
    kin = kin_of(2, 1.3 + 0.8j)
    ops = all_generators(kin, params, build_basis(2))
    for i in (1, 2, 3, 4):
        K = ops[f"K{i}"].matrix
        assert np.linalg.norm(K - np.diag(np.diag(K))) < 1e-12


def test_k2k4_measure_central_elements(params, kin_of):
    # on |0>^1 = |0,0,0,M>: H4 = C - M/2 and H2 = -C - M/2 with q^C = V
    M = 2
    kin = kin_of(M, 1.3 + 0.8j)
    space = build_basis(M)
    i0 = space.families[1][0]
    ops = all_generators(kin, params, space)
    K2, K4 = ops["K2"].matrix, ops["K4"].matrix
    q = params.q
    assert abs(K4[i0, i0] - kin.V * q ** (-M / 2)) < 1e-12
    assert abs(K2[i0, i0] - q ** (-M / 2) / kin.V) < 1e-12


def _valid(state) -> bool:
    m, n, k, l = state
    return 0 <= m <= 1 and 0 <= n <= 1 and k >= 0 and l >= 0


def oracle_generator(gen, kin, params, space, dtype=complex) -> GradedOperator:
    """One generator per basis walk, branching on its name: the construction
    all_generators replaced, kept as an oracle for it."""
    q = params.q
    C = log(kin.V) / log(q)
    a, b, c, d = bulk_labels(kin, params)
    at, bt, ct, dt = affine_labels(kin, params)
    entries = {}
    for state in space.states:
        m, n, k, l = state
        if gen == "E1":
            tgt = (m, n, k - 1, l + 1)
            if _valid(tgt):
                entries[(tgt, state)] = qint(k, q)
        elif gen == "F1":
            tgt = (m, n, k + 1, l - 1)
            if _valid(tgt):
                entries[(tgt, state)] = qint(l, q)
        elif gen == "E3":
            tgt = (m + 1, n - 1, k, l)
            if _valid(tgt):
                entries[(tgt, state)] = 1
        elif gen == "F3":
            tgt = (m - 1, n + 1, k, l)
            if _valid(tgt):
                entries[(tgt, state)] = 1
        elif gen in ("E2", "E4"):
            aa, bb = (a, b) if gen == "E2" else (at, bt)
            tgt = (m, n + 1, k, l - 1)
            if _valid(tgt):
                entries[(tgt, state)] = aa * (-1) ** m * qint(l, q)
            tgt = (m - 1, n, k + 1, l)
            if _valid(tgt):
                entries[(tgt, state)] = bb
        elif gen in ("F2", "F4"):
            cc, dd = (c, d) if gen == "F2" else (ct, dt)
            tgt = (m + 1, n, k - 1, l)
            if _valid(tgt):
                entries[(tgt, state)] = cc * qint(k, q)
            tgt = (m, n - 1, k, l + 1)
            if _valid(tgt):
                entries[(tgt, state)] = dd * (-1) ** m
        else:  # K_i = q^{H_i}
            i = int(gen[1])
            if i == 1:
                h = l - k
            elif i == 3:
                h = n - m
            elif i == 2:
                h = -(C - (k - l + m - n) / 2)
            else:
                h = C + (k - l + m - n) / 2
            entries[(state, state)] = q**h
    mat = np.zeros((space.dim, space.dim), dtype=dtype)
    for (row, col), val in entries.items():
        mat[space.index[row], space.index[col]] += val
    return GradedOperator(mat, GENERATOR_PARITY[gen])


def _assert_matches_oracle(kin, params, space, dtype):
    ops = all_generators(kin, params, space, dtype=dtype)
    assert tuple(ops) == GENERATORS
    for gen in GENERATORS:
        want = oracle_generator(gen, kin, params, space, dtype=dtype)
        assert ops[gen].parity == want.parity, gen
        assert ops[gen].matrix.dtype == want.matrix.dtype, gen
        assert np.array_equal(ops[gen].matrix, want.matrix), gen


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_all_generators_match_oracle_bit_for_bit(M, params_gammas):
    p = ModelParams(q=1.1, g=0.4, alpha_tilde=0.7 + 0.2j, gamma=1.2 + 0.3j)
    for par in (params_gammas, p):
        kin = on_shell(M, 1.3 + 0.8j, par)
        _assert_matches_oracle(kin, par, build_basis(M), complex)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_all_generators_match_oracle_bit_for_bit_mpmath(M):
    with mpmath.workprec(106):
        p = ModelParams(
            q=mpmath.mpc("1.5"), g=mpmath.mpc("0.4"),
            alpha_tilde=mpmath.mpc("0.7", "0.2"), gamma=mpmath.mpc("1.2", "0.3"),
        )
        kin = on_shell(M, mpmath.mpc("1.3", "0.8"), p)
        _assert_matches_oracle(kin, p, build_basis(M), object)


def test_all_generators_evaluates_each_label_set_once(params, kin_of, monkeypatch):
    calls = {"bulk": 0, "affine": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(representation, "bulk_labels", counted("bulk", bulk_labels))
    monkeypatch.setattr(representation, "affine_labels", counted("affine", affine_labels))
    all_generators(kin_of(2, 1.3 + 0.8j), params, build_basis(2))
    assert calls == {"bulk": 1, "affine": 1}


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_all_defining_relations(M, params, kin_of):
    kin = kin_of(M, 1.3 + 0.8j)
    res = verify_algebra(kin, params, build_basis(M))
    worst = max(res, key=res.get)
    assert res[worst] < TOL_ALGEBRA, (worst, res[worst])


def test_relations_at_second_point(params, kin_of):
    res = verify_algebra(kin_of(3, -0.7 + 1.1j), params, build_basis(3))
    assert max(res.values()) < TOL_ALGEBRA


def test_residuals_are_roundoff_not_model_error():
    # the same relations at 128-bit precision: residuals drop to ~1e-38,
    # confirming the double-precision numbers are pure roundoff
    with mpmath.workprec(128):
        p = ModelParams(q=mpmath.mpc("1.1"), g=mpmath.mpc("0.4"))
        xm = mpmath.mpc("1.3", "0.8")
        xp = max(solve_shortening(xm, 1, p), key=abs)
        kin = make_kinematics(1, xp, xm, p)
        res = verify_algebra(kin, p, build_basis(1), dtype=object)
    assert max(res.values()) < 1e-30


def test_scalar_times_operator_skips_matrix_repr():
    # mpc * op reaches __rmul__ only after mpmath formats repr(op) for an
    # error message, so the repr must not format the matrix
    with mpmath.workprec(106):
        op = identity_operator(build_basis(2), dtype=object) * mpmath.mpc(1, 3)
        left, right = mpmath.mpc(2) * op, op * mpmath.mpc(2)
    assert left.parity == right.parity == 0
    assert all(x == y for x, y in zip(left.matrix.flat, right.matrix.flat))
    assert "mpc" not in repr(op) and "matrix" not in repr(op)


def test_graded_commutator_signs(params, kin_of):
    kin = kin_of(1, 1.3 + 0.8j)
    space = build_basis(1)
    ops = all_generators(kin, params, space)
    # odd-odd pairs anticommute inside the bracket
    lhs = graded_commutator(ops["E2"], ops["F2"]).matrix
    direct = ops["E2"].matrix @ ops["F2"].matrix + ops["F2"].matrix @ ops["E2"].matrix
    assert np.linalg.norm(lhs - direct) < 1e-13
    # even-odd pairs commute inside the bracket
    lhs13 = graded_commutator(ops["E1"], ops["E2"]).matrix
    direct13 = ops["E1"].matrix @ ops["E2"].matrix - ops["E2"].matrix @ ops["E1"].matrix
    assert np.linalg.norm(lhs13 - direct13) < 1e-13


def test_central_charges_scalar(params, kin_of):
    M = 2
    kin = kin_of(M, 0.9 - 1.1j)
    space = build_basis(M)
    ops = all_generators(kin, params, space)
    lam = params.q - 2 + 1 / params.q
    g, a = params.g, params.alpha
    U, V = kin.U, kin.V
    want = {
        1: V**-2,
        2: g * a * (1 - U**2 * V**2),
        3: (g / a) * (V**-2 - U**-2),
    }
    ident = np.eye(space.dim)
    # C1 = K1 K2^2 K3; C2 and C3 are the k = 2 quartic Serre combinations
    central = {
        1: (ops["K1"] @ ops["K2"] @ ops["K2"] @ ops["K3"]).matrix,
        2: quartic_serre_lhs("E", 2, ops, lam).matrix,
        3: quartic_serre_lhs("F", 2, ops, lam).matrix,
    }
    for which, scalar in want.items():
        C = central[which]
        assert np.linalg.norm(C - scalar * ident) < 1e-11, which


@pytest.mark.parametrize("M", [1, 2, 5])
def test_central_charges_equal_quartic_serre_bit_for_bit(M, params, kin_of):
    # C2 = {[X2, X1}, [X2, X3}} - lam X2 X1 X3 X2 with X = E (C3: X = F);
    # both brackets are exact negatives of quartic_serre_lhs's, so
    # verify_algebra may reuse the k = 2 quartic matrices as C2 and C3
    kin = kin_of(M, 0.9 - 1.1j)
    ops = all_generators(kin, params, build_basis(M))
    lam = params.q - 2 + 1 / params.q
    for kind in "EF":
        x1, x2, x3 = (ops[f"{kind}{i}"] for i in (1, 2, 3))
        C = graded_commutator(graded_commutator(x2, x1), graded_commutator(x2, x3))
        C = C - lam * (x2 @ x1 @ x3 @ x2)
        assert np.array_equal(C.matrix, quartic_serre_lhs(kind, 2, ops, lam).matrix), kind


def test_vanishing_ef_cross_terms(params, kin_of):
    # [E1, F3} and [E3, F1} have no common weight support and must vanish
    kin = kin_of(2, 1.3 + 0.8j)
    ops = all_generators(kin, params, build_basis(2))
    for x, y in (("E1", "F3"), ("E3", "F1")):
        assert np.linalg.norm(graded_commutator(ops[x], ops[y]).matrix) < 1e-13


def test_odd_operator_not_invertible(params, kin_of):
    kin = kin_of(1, 1.3 + 0.8j)
    ops = all_generators(kin, params, build_basis(1))
    with pytest.raises(ValueError):
        ops["E2"].inv()


def test_parity_mismatch_addition_rejected(params, kin_of):
    kin = kin_of(1, 1.3 + 0.8j)
    ops = all_generators(kin, params, build_basis(1))
    with pytest.raises(ValueError):
        ops["E1"] + ops["E2"]


def test_identity_operator():
    space = build_basis(2)
    ident = identity_operator(space)
    assert np.linalg.norm(ident.matrix - np.eye(8)) == 0
    assert ident.parity == 0
