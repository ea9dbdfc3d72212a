"""Object-array (mpmath) arithmetic: sparse product, diagonal inverse, norm.

Each helper skips exact zeros or uses the diagonal, so it must agree bit for
bit with the dense form it replaces; the dense forms are kept here as oracles.
"""

import random

import mpmath
import numpy as np
import pytest

from qab import numerics
from qab.kinematics import ModelParams, on_shell
from qab.numerics import fnorm, mdot, minv
from qab.representation import build_basis, verify_algebra


def dense_dot(a, b):
    return np.dot(a, b)


def lu_inv(a):
    return np.array((mpmath.matrix(a.tolist()) ** -1).tolist(), dtype=object)


def dense_fnorm(a):
    a = np.asarray(a)
    if a.dtype == object:
        return float(mpmath.sqrt(sum(abs(x) ** 2 for x in a.flat)))
    return float(np.linalg.norm(a))


def _mpc(rng):
    return mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) / 3


def _sparse(rng, rows, cols):
    """Object matrix mixing int 0, mpc(0), small ints and mpc entries."""
    pick = [
        lambda: 0, lambda: 0, lambda: 0, lambda: mpmath.mpc(0),
        lambda: rng.choice((1, -1, 2)), lambda: _mpc(rng),
    ]
    a = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = rng.choice(pick)()
    return a


def _same(x, y):
    assert x.shape == y.shape
    return all(u == v for u, v in zip(x.flat, y.flat))


@pytest.mark.parametrize("prec", [53, 106])
def test_mdot_equals_dense_dot_on_object_arrays(prec):
    rng = random.Random(prec)
    with mpmath.workprec(prec):
        for rows, inner, cols in [(4, 4, 4), (5, 3, 6), (8, 8, 8), (1, 7, 2)]:
            a, b = _sparse(rng, rows, inner), _sparse(rng, inner, cols)
            assert _same(mdot(a, b), dense_dot(a, b))
        zero = np.zeros((3, 3), dtype=object)
        assert _same(mdot(zero, _sparse(rng, 3, 3)), dense_dot(zero, zero))


def test_mdot_is_np_dot_on_complex_arrays():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(mdot(a, b), np.dot(a, b))


@pytest.mark.parametrize("prec", [53, 106, 200])
def test_minv_equals_mpmath_inverse_on_diagonal(prec):
    rng = random.Random(prec)
    with mpmath.workprec(prec):
        entries = [_mpc(rng) for _ in range(5)] + [mpmath.mpf(3) / 7, 1]
        a = np.zeros((7, 7), dtype=object)
        for i, x in enumerate(entries):
            a[i, i] = x
        assert _same(minv(a), lu_inv(a))


def test_minv_rejects_non_diagonal_object_matrix():
    a = np.zeros((3, 3), dtype=object)
    for i in range(3):
        a[i, i] = mpmath.mpc(1, 1)
    a[0, 2] = mpmath.mpc(1)
    with pytest.raises(ValueError, match="diagonal"):
        minv(a)


@pytest.mark.parametrize("prec", [53, 106])
def test_fnorm_equals_dense_sum(prec):
    rng = random.Random(prec)
    with mpmath.workprec(prec):
        for shape in [(4, 4), (6, 3)]:
            a = _sparse(rng, *shape)
            assert fnorm(a) == dense_fnorm(a)
        assert fnorm(np.zeros((2, 2), dtype=object)) == 0.0


@pytest.mark.parametrize("M", [1, 2, 3])
def test_verify_algebra_unchanged_with_dense_oracles(M, monkeypatch):
    with mpmath.workprec(106):
        p = ModelParams(q=mpmath.mpc("1.5"), g=mpmath.mpc("0.4"))
        kin = on_shell(M, mpmath.mpc("1.3", "0.8"), p)
        sparse = verify_algebra(kin, p, build_basis(M), dtype=object)
        monkeypatch.setattr(numerics, "mdot", dense_dot)
        monkeypatch.setattr(numerics, "minv", lu_inv)
        monkeypatch.setattr(numerics, "fnorm", dense_fnorm)
        dense = verify_algebra(kin, p, build_basis(M), dtype=object)
    assert sparse == dense
