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
    """Frobenius norm that also accepts object (mpmath) arrays."""
    a = np.asarray(a)
    if a.dtype == object:
        return float(mpmath.sqrt(sum(abs(x) ** 2 for x in a.flat)))
    return float(np.linalg.norm(a))


def rel_residual(lhs, rhs) -> float:
    """Frobenius-relative residual ||L - R|| / max(1, ||L||, ||R||)."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    return fnorm(lhs - rhs) / max(1.0, fnorm(lhs), fnorm(rhs))


def minv(a):
    """Matrix inverse; object arrays go through mpmath to keep precision."""
    a = np.asarray(a)
    if a.dtype == object:
        return np.array((mpmath.matrix(a.tolist()) ** -1).tolist(), dtype=object)
    return np.linalg.inv(a)
