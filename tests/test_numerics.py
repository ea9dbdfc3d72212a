"""Block arithmetic: the stacked product and the norms, in double precision
and on object (mpmath) arrays.

The object kernels skip exact zeros, so they must agree bit for bit with the
dense forms they replace; the dense forms are kept here as oracles.
"""

import random

import mpmath
import numpy as np
import pytest

from qab import numerics
from qab.kinematics import ModelParams, on_shell
from qab.numerics import fnorm, mdot
from qab.representation import build_basis, verify_algebra


def dense_dot(a, b):
    return np.dot(a, b)


def dense_emul(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def dense_fnorms(a):
    return np.array([dense_fnorm(x) for x in a])


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
        # stacks of 2 x 2 weight blocks, broadcast over the leading axes
        a = _sparse(rng, 6 * 5, 4).reshape(6, 5, 2, 2)
        b = _sparse(rng, 5, 4).reshape(5, 2, 2)
        assert _same(mdot(a, b), np.matmul(a, b))


def test_mdot_is_matmul_on_complex_blocks():
    # the same two products per entry as np.matmul, summed in the same order;
    # only BLAS's fused multiply-adds can move the last bit
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 9, 2, 2)) + 1j * rng.standard_normal((7, 9, 2, 2))
    b = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    assert np.allclose(mdot(a, b), np.matmul(a, b), rtol=1e-15, atol=0)


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
    # the block products, elementwise products and norms that skip exact
    # zeros give verify_algebra's residuals bit for bit with dense ones
    with mpmath.workprec(106):
        p = ModelParams(q=mpmath.mpc("1.5"), g=mpmath.mpc("0.4"))
        kin = on_shell(M, mpmath.mpc("1.3", "0.8"), p)
        (sparse,) = verify_algebra([kin], p, build_basis(M), dtype=object)
        monkeypatch.setattr(numerics, "mdot", np.matmul)
        monkeypatch.setattr(numerics, "emul", dense_emul)
        monkeypatch.setattr(numerics, "fnorms", dense_fnorms)
        (dense,) = verify_algebra([kin], p, build_basis(M), dtype=object)
    assert sparse == dense
