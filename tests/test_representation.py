"""Bound-state module: basis layout, generator actions, defining relations."""

import mpmath
import numpy as np
import pytest

from qab import representation
from qab.harness import sample_kinematics
from qab.kinematics import (
    ModelParams,
    affine_labels,
    bulk_labels,
    derive_couplings,
    make_kinematics,
    on_shell,
    solve_shortening,
)
from qab.numerics import TOL_ALGEBRA, log, qint, rel_residual
from qab.representation import (
    D_DIAG,
    DA,
    GENERATOR_PARITY,
    GENERATORS,
    SHIFTS,
    GradedOperator,
    all_generators,
    bosonic_generators,
    build_basis,
    graded_commutator,
    identity_operator,
    supercharge_steps,
    verify_algebra,
    weight_layout,
)

#: Weight (l - k, n - m) step of each generator, read off its action on
#: |m,n,k,l>; the K_i keep the weight and are diagonal.
WEIGHT_STEP = {
    "E1": (2, 0), "F1": (-2, 0), "E3": (0, -2), "F3": (0, 2),
    "E2": (-1, 1), "E4": (-1, 1), "F2": (1, -1), "F4": (1, -1),
}


def outside_pattern(gen, space) -> np.ndarray:
    """The entries outside gen's weight pattern (off the diagonal for the
    K_i), from the basis states alone."""
    w = np.array([(l - k, n - m) for m, n, k, l in space.states])
    if gen in WEIGHT_STEP:
        return ~np.all(w[:, None] == w[None, :] + WEIGHT_STEP[gen], axis=-1)
    return ~np.eye(space.dim, dtype=bool)


def weight_pattern_residual(op, gen, space) -> float:
    """Norm of op's entries outside gen's weight pattern."""
    off = np.where(outside_pattern(gen, space), op.matrix, 0)
    return float(np.linalg.norm(off.astype(complex)))


def dense_inv(op: GradedOperator) -> GradedOperator:
    m = op.matrix
    if m.dtype == object:
        inverse = mpmath.matrix(m.tolist()) ** -1
        return GradedOperator(np.array(inverse.tolist(), dtype=object), 0)
    return op.inv()


def quartic_serre_lhs(kind: str, k: int, ops: dict, lam) -> GradedOperator:
    """{[X1, Xk], [X3, Xk]} - lam Xk X1 X3 Xk for X in {E, F}, with the
    q-Serre scalar lam = q - 2 + 1/q supplied by the caller.

    At k = 2 this is also the central charge C2 (X = E) or C3 (X = F): their
    defining brackets [X2, X1}, [X2, X3} are the negatives of these, exactly.
    """
    x1, x3, xk = ops[f"{kind}1"], ops[f"{kind}3"], ops[f"{kind}{k}"]
    t1 = graded_commutator(
        graded_commutator(x1, xk), graded_commutator(x3, xk)
    )
    t2 = xk @ x1 @ x3 @ xk
    return t1 - t2 * lam


def dense_verify_algebra(ops, kin, params, space) -> dict:
    """verify_algebra on the dense d x d generator matrices ``ops``: the
    evaluation the weight blocks replaced, kept as their oracle."""
    q = params.q
    _, g_tilde = derive_couplings(q, params.g)
    alpha, at = params.alpha, params.alpha_tilde
    g = params.g
    k_inv = {i: dense_inv(ops[f"K{i}"]) for i in range(1, 5)}
    lam = q - 2 + 1 / q
    ident = identity_operator(space, dtype=ops["K1"].matrix.dtype)
    U, V = kin.U, kin.V
    res = {}

    def put(name, L, R):
        res[name] = rel_residual(L.matrix, R)

    for i in range(1, 5):
        Ki = ops[f"K{i}"]
        for j in range(1, 5):
            daij = DA[i - 1][j - 1]
            ej, fj = ops[f"E{j}"], ops[f"F{j}"]
            put(f"K{i}E{j}", Ki @ ej @ k_inv[i], (ej * q**daij).matrix)
            put(f"K{i}F{j}", Ki @ fj @ k_inv[i], (fj * q**-daij).matrix)
    for j in range(1, 5):
        lhs = graded_commutator(ops[f"E{j}"], ops[f"F{j}"])
        rhs = (ops[f"K{j}"] - k_inv[j]) * (D_DIAG[j - 1] / (q - 1 / q))
        put(f"E{j}F{j}", lhs, rhs.matrix)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j and i + j != 6:
                put(f"E{i}F{j}", graded_commutator(ops[f"E{i}"], ops[f"F{j}"]), 0)
    put("E2F4", graded_commutator(ops["E2"], ops["F4"]),
        ((ops["K4"] - k_inv[2] * U**2) * (-g_tilde / at)).matrix)
    put("E4F2", graded_commutator(ops["E4"], ops["F2"]),
        ((ops["K2"] - k_inv[4] * U**-2) * (g_tilde * at)).matrix)
    for kind in ("E", "F"):
        for j in (1, 3):
            for k in (2, 4):
                xj, xk = ops[f"{kind}{j}"], ops[f"{kind}{k}"]
                lhs = graded_commutator(xj, graded_commutator(xj, xk)) - (xj @ xk @ xj) * lam
                put(f"serre_{kind}{j}{k}", lhs, 0)
        x1, x2, x3, x4 = (ops[f"{kind}{i}"] for i in (1, 2, 3, 4))
        put(f"{kind}1{kind}3", graded_commutator(x1, x3), 0)
        put(f"{kind}2{kind}2", x2 @ x2, 0)
        put(f"{kind}4{kind}4", x4 @ x4, 0)
        put(f"{kind}2{kind}4", graded_commutator(x2, x4), 0)
    quartic = {}
    for k, (uk, vk, ak) in {2: (U, V, alpha), 4: (1 / U, 1 / V, alpha * at * at)}.items():
        quartic["E", k] = quartic_serre_lhs("E", k, ops, lam)
        quartic["F", k] = quartic_serre_lhs("F", k, ops, lam)
        e_val, f_val = g * ak * (1 - vk**2 * uk**2), g / ak * (vk**-2 - uk**-2)
        put(f"quartic_E{k}", quartic["E", k], (ident * e_val).matrix)
        put(f"quartic_F{k}", quartic["F", k], (ident * f_val).matrix)
    c1 = ops["K1"] @ ops["K2"] @ ops["K2"] @ ops["K3"]
    c2, c3 = quartic["E", 2], quartic["F", 2]
    put("C1_scalar", c1, (ident * V**-2).matrix)
    put("C2_scalar", c2, (ident * (g * alpha * (1 - U**2 * V**2))).matrix)
    put("C3_scalar", c3, (ident * (g / alpha * (V**-2 - U**-2))).matrix)
    for name, cc in (("C1", c1), ("C2", c2), ("C3", c3)):
        res[f"{name}_central"] = max(
            rel_residual(graded_commutator(cc, ops[gen]).matrix, 0) for gen in GENERATORS
        )
    put("K1K2K3K4", ops["K1"] @ ops["K2"] @ ops["K3"] @ ops["K4"], ident.matrix)
    put("V2_constraint", dense_inv(c1), (ident * V**2).matrix)
    c1_affine = ops["K1"] @ ops["K4"] @ ops["K4"] @ ops["K3"]
    put("V4_constraint", dense_inv(c1_affine), (ident * V**-2).matrix)
    res["weight_pattern"] = max(
        weight_pattern_residual(ops[gen], gen, space) for gen in GENERATORS
    )
    return res


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


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_space_weights_are_the_k1_k3_exponents(M):
    # K1 = q^H1 and K3 = q^H3 on each state, so the diagonals give (H1, H3)
    q = 1.3
    space = build_basis(M)
    ops = bosonic_generators(q, space)
    for col, K in enumerate(("K1", "K3")):
        h = np.log(np.diag(ops[K].matrix).real) / np.log(q)
        assert np.allclose(h, space.weights[:, col], rtol=0, atol=1e-12), K


def test_shifts_come_from_the_cartan_matrix():
    # derived from DA, they equal the steps read off each generator's action
    assert list(SHIFTS) == [f"{x}{i}" for x in "EF" for i in (1, 2, 3, 4)]
    assert SHIFTS == WEIGHT_STEP


def test_equal_spaces_share_one_weight_layout():
    assert build_basis(3) == build_basis(3) != build_basis(2)
    assert weight_layout(build_basis(3)) is weight_layout(build_basis(3))


def test_verify_algebra_builds_no_basis(params, kin_of, monkeypatch):
    # the weight layout reads the caller's space: no second basis per check
    space, kin = build_basis(3), kin_of(3, 1.3 + 0.8j)
    weight_layout.cache_clear()

    def no_basis(M):
        raise AssertionError("build_basis called")

    monkeypatch.setattr(representation, "build_basis", no_basis)
    assert verify_algebra([kin], params, space)[0]["weight_pattern"] == 0


def test_generator_parities():
    assert GENERATOR_PARITY["E1"] == 0 and GENERATOR_PARITY["E3"] == 0
    assert GENERATOR_PARITY["E2"] == 1 and GENERATOR_PARITY["E4"] == 1
    assert GENERATOR_PARITY["F2"] == 1 and GENERATOR_PARITY["F4"] == 1


def test_parity_zero_patterns(params, kin_of):
    # each generator vanishes off its weight pattern, and the weight pattern
    # lies inside the parity pattern: weight_pattern certifies parity too
    kin = kin_of(2, 1.3 + 0.8j)
    space = build_basis(2)
    ops = all_generators(kin, params, space)
    p = space.parities
    for i, (name, op) in enumerate(ops.items()):
        outside = outside_pattern(name, space)
        odd = (p[:, None] + p[None, :] + op.parity) % 2 == 1
        assert not np.any(odd & ~outside), name
        assert weight_pattern_residual(op, name, space) == 0, name
        assert np.array_equal(weight_layout(space).outside[i], outside), name


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


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_supercharges_are_linear_in_their_labels(M, params_gammas):
    # E_i = a P_a + b P_b and F_i = c Q_c + d Q_d with kinematics-free steps,
    # the bulk labels at i = 2 and the affine ones at i = 4
    kin, space = on_shell(M, 1.3 + 0.8j, params_gammas), build_basis(M)
    ops = all_generators(kin, params_gammas, space)
    steps = supercharge_steps(params_gammas.q, space)
    for i, (a, b, c, d) in ((2, bulk_labels(kin, params_gammas)),
                            (4, affine_labels(kin, params_gammas))):
        for gen, want in ((f"E{i}", a * steps["a"] + b * steps["b"]),
                          (f"F{i}", c * steps["c"] + d * steps["d"])):
            assert np.abs(ops[gen].matrix - want).max() <= 1e-15 * np.abs(want).max(), gen


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
    (res,) = verify_algebra([kin], params, build_basis(M))
    worst = max(res, key=res.get)
    assert res[worst] < TOL_ALGEBRA, (worst, res[worst])


def test_relations_at_second_point(params, kin_of):
    (res,) = verify_algebra([kin_of(3, -0.7 + 1.1j)], params, build_basis(3))
    assert max(res.values()) < TOL_ALGEBRA


def test_residuals_are_roundoff_not_model_error():
    # the same relations at 128-bit precision: residuals drop to ~1e-38,
    # confirming the double-precision numbers are pure roundoff
    with mpmath.workprec(128):
        p = ModelParams(q=mpmath.mpc("1.1"), g=mpmath.mpc("0.4"))
        xm = mpmath.mpc("1.3", "0.8")
        xp = max(solve_shortening(xm, 1, p), key=abs)
        kin = make_kinematics(1, xp, xm, p)
        (res,) = verify_algebra([kin], p, build_basis(1), dtype=object)
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


#: q off the unit circle, on the real line and in the complex plane.
Q_POINTS = (1.1, 1.5, 1.105273192803462 + 0.4673020107703806j)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_verify_algebra_matches_dense_oracle_at_106_bits(M):
    with mpmath.workprec(106):
        for q in (mpmath.mpc("1.5"), mpmath.mpc(Q_POINTS[2])):
            p = ModelParams(q=q, g=mpmath.mpc("0.4"))
            kin = on_shell(M, mpmath.mpc("1.3", "0.8"), p)
            space = build_basis(M)
            (res,) = verify_algebra([kin], p, space, dtype=object)
            want = dense_verify_algebra(all_generators(kin, p, space, dtype=object), kin, p, space)
            assert list(res) == list(want)
            for key, value in want.items():
                assert abs(res[key] - value) < 1e-25, (q, key, res[key], value)


@pytest.mark.parametrize("q", Q_POINTS)
def test_verify_algebra_verdicts_match_dense_oracle(q):
    # double precision: the two evaluations round differently, but every
    # relation keeps its verdict, also where roundoff fails it (q = 1.5, M >= 7)
    p = ModelParams(q=q, g=0.4)
    for M in range(1, 9):
        kin = on_shell(M, 1.3 + 0.8j, p)
        space = build_basis(M)
        (res,) = verify_algebra([kin], p, space)
        want = dense_verify_algebra(all_generators(kin, p, space), kin, p, space)
        assert list(res) == list(want)
        flipped = [k for k in want if (res[k] <= TOL_ALGEBRA) != (want[k] <= TOL_ALGEBRA)]
        assert flipped == [], (M, [(k, res[k], want[k]) for k in flipped])


def _perturbed_e2(params, monkeypatch, change):
    """verify_algebra and its dense oracle at M = 3 with ``change`` applied
    to E2's matrix in the generators both receive."""
    kin = on_shell(3, 1.3 + 0.8j, params)
    space = build_basis(3)
    ops = all_generators(kin, params, space)
    change(ops["E2"].matrix)
    monkeypatch.setattr(representation, "all_generators", lambda *args: ops)
    return verify_algebra([kin], params, space)[0], dense_verify_algebra(ops, kin, params, space)


def test_perturbed_in_pattern_entry_fails_both_paths(params, monkeypatch):
    def scale_first_entry(m):
        m[tuple(np.argwhere(m)[0])] *= 1 + 1e-6

    res, want = _perturbed_e2(params, monkeypatch, scale_first_entry)
    worst = max(want, key=want.get)
    assert want[worst] > TOL_ALGEBRA and max(res, key=res.get) == worst
    assert abs(res[worst] - want[worst]) < 0.01 * want[worst], (worst, res[worst], want[worst])
    assert res["weight_pattern"] == 0


def test_off_pattern_entry_fails_weight_pattern(params, monkeypatch):
    space = build_basis(3)

    def add_off_pattern(m):
        m[tuple(np.argwhere(outside_pattern("E2", space))[0])] += 1e-6

    res, want = _perturbed_e2(params, monkeypatch, add_off_pattern)
    assert res["weight_pattern"] >= 1e-6 > TOL_ALGEBRA
    assert want["weight_pattern"] == res["weight_pattern"]


def _rep_check_points(M, params, n):
    """The first n points rep-check samples at seed 7 and bound-state number M."""
    return [sample_kinematics(M, params, np.random.default_rng([7, M * 1000 + s]))
            for s in range(n)]


@pytest.mark.parametrize("M", range(1, 7))
@pytest.mark.parametrize("q", [1.1, Q_POINTS[2], "high:106"])
def test_batched_verify_algebra_equals_one_point_calls(M, q):
    # P points in one pass give each point's residuals bit for bit, in the
    # same key order, as P one-point calls
    p = ModelParams(q=1.5 if q == "high:106" else q, g=0.4)
    kins, dtype = _rep_check_points(M, p, 5), complex
    with mpmath.workprec(106):
        if q == "high:106":
            p, dtype = ModelParams(q=mpmath.mpc("1.5"), g=mpmath.mpc("0.4")), object
            kins = [on_shell(M, mpmath.mpc(k.x_minus), p, near=k.x_plus) for k in kins]
        space = build_basis(M)
        alone = [verify_algebra([kin], p, space, dtype=dtype)[0] for kin in kins]
        for P in (1, 2, 3, 5):
            batched = verify_algebra(kins[:P], p, space, dtype=dtype)
            assert [list(r.items()) for r in batched] == [list(r.items()) for r in alone[:P]]


@pytest.mark.parametrize("where", ["in-pattern", "off-pattern"])
def test_defect_at_one_point_moves_only_its_residuals(where, params, monkeypatch):
    # a defect planted in one point's E2 shows in that point's residuals alone
    space = build_basis(3)
    kins = _rep_check_points(3, params, 3)
    clean = verify_algebra(kins, params, space)
    build = representation.all_generators

    def planted(kin, *args):
        ops = build(kin, *args)
        if kin is kins[1]:
            m = ops["E2"].matrix
            if where == "in-pattern":
                m[tuple(np.argwhere(m)[0])] *= 1 + 1e-6
            else:
                m[tuple(np.argwhere(outside_pattern("E2", space))[0])] += 1e-6
        return ops

    monkeypatch.setattr(representation, "all_generators", planted)
    res = verify_algebra(kins, params, space)
    assert res[0] == clean[0] and res[2] == clean[2]
    key = "weight_pattern" if where == "off-pattern" else max(res[1], key=res[1].get)
    assert res[1][key] > TOL_ALGEBRA >= clean[1][key]
