"""Scalar helpers shared across the package.

All kinematic formulas are written against these wrappers so that the same
code path runs in complex double precision (the default) and in mpmath
arbitrary precision (used by the high-precision mode and by test oracles).
"""

from __future__ import annotations

import cmath

import mpmath
import numpy as np

#: Tolerance tiers, matching the identity class they gate.
TOL_CLOSED_FORM = 1e-12
TOL_ALGEBRA = 1e-10
TOL_INTERTWINER = 1e-9
TOL_COMPOSITE = 1e-8


def is_mp(*values) -> bool:
    """True if any argument is an mpmath scalar."""
    return any(isinstance(v, (mpmath.mpf, mpmath.mpc)) for v in values)


def sqrt(x):
    """Principal square root, dispatching on scalar type."""
    if is_mp(x):
        return mpmath.sqrt(x)
    return cmath.sqrt(x)


def log(x):
    """Principal logarithm, dispatching on scalar type."""
    if is_mp(x):
        return mpmath.log(x)
    return cmath.log(x)


def qint(n: int, q):
    """q-number [n]_q = (q^n - q^-n)/(q - q^-1), with the q=1 value n."""
    if q == 1:
        return 1.0 * n if not is_mp(q) else mpmath.mpf(n)
    return (q**n - q**-n) / (q - 1 / q)


def fnorm(a) -> float:
    """Frobenius norm that also accepts object (mpmath) arrays.

    Object arrays skip exact zeros, which never change an mpmath sum.
    """
    a = np.asarray(a)
    if a.dtype == object:
        return float(mpmath.sqrt(sum(abs(x) ** 2 for x in a.flat if x)))
    return float(np.linalg.norm(a))


def rel_residual(lhs, rhs) -> float:
    """Frobenius-relative residual ||L - R|| / max(1, ||L||, ||R||); a
    scalar R = 0 is not subtracted."""
    lhs = np.asarray(lhs)
    if np.ndim(rhs) == 0 and rhs == 0:
        return min(fnorm(lhs), 1.0)  # ||L|| / max(1, ||L||), exactly
    rhs = np.asarray(rhs)
    return fnorm(lhs - rhs) / max(1.0, fnorm(lhs), fnorm(rhs))


def mdot(a, b):
    """Matrix product; object (mpmath) arrays sum only nonzero products.

    An object entry folds a[i, k] * b[k, j] left to right over ascending k,
    as ``np.dot`` does, but leaves out the products with an exact-zero
    factor; adding an exact zero never changes an mpmath value, so the
    result is ``np.dot``'s bit for bit.  An entry with no product left is 0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != object and b.dtype != object:
        return np.dot(a, b)
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i, row in enumerate(a.tolist()):
        acc = {}
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
        for j, v in acc.items():
            out[i, j] = v
    return out


def minv(a):
    """Matrix inverse; object arrays must be diagonal.

    Every object matrix inverted here is a product of the diagonal K_i.  Its
    inverse is the reciprocal of the diagonal at 10 extra bits, unrounded,
    which is what ``mpmath.inverse`` returns for a diagonal matrix.
    """
    a = np.asarray(a)
    if a.dtype == object:
        diag = np.diag(a)
        if np.count_nonzero(a) != np.count_nonzero(diag):
            raise ValueError("object matrices are inverted only when diagonal")
        out = np.zeros(a.shape, dtype=object)
        with mpmath.extraprec(10):
            for i, x in enumerate(diag):
                out[i, i] = 1 / mpmath.mpmathify(x)
        return out
    return np.linalg.inv(a)
