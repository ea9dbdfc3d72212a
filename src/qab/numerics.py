"""Scalar helpers shared across the package.

All kinematic formulas are written against these wrappers so that the same
code path runs in complex double precision (the default) and in mpmath
arbitrary precision (used by the high-precision mode and by test oracles).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

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

    Object arrays sum |x|^2 exactly and round once (``mpmath.fsum``), skipping
    exact zeros; a 0-d input takes ``np.linalg.norm``'s product and sum alone.
    """
    a = np.asarray(a)
    if a.dtype == object:
        terms = (x for x in a.flat if x)
        return float(mpmath.sqrt(mpmath.fsum(terms, absolute=True, squared=True)))
    if a.ndim == 0:
        z = complex(a)
        return math.sqrt(z.real * z.real + z.imag * z.imag)
    return float(np.linalg.norm(a))


def rel_residual(lhs, rhs) -> float:
    """Frobenius-relative residual ||L - R|| / max(1, ||L||, ||R||); a
    scalar R = 0 is not subtracted."""
    lhs = np.asarray(lhs)
    if np.ndim(rhs) == 0 and rhs == 0:
        return min(fnorm(lhs), 1.0)  # ||L|| / max(1, ||L||), exactly
    rhs = np.asarray(rhs)
    return fnorm(lhs - rhs) / max(1.0, fnorm(lhs), fnorm(rhs))


def fnorms(a) -> np.ndarray:
    """Frobenius norm of each a[i], as ``fnorm`` gives it."""
    a = np.asarray(a)
    if a.dtype == object:
        return np.array([fnorm(x) for x in a])
    return np.linalg.norm(a.reshape(len(a), -1), axis=1)


def emul(*factors):
    """Elementwise product of the broadcast factors, left to right.

    Object (mpmath) arrays multiply only where no factor is an exact zero and
    hold 0 elsewhere: an exact-zero factor gives an exact zero anyway, and
    mpmath spends as long on it as on any other product.
    """
    arrays = [np.asarray(f) for f in factors]
    if all(a.dtype != object for a in arrays):
        return functools.reduce(operator.mul, factors)
    return _emul_nonzero(arrays, [a.astype(bool) for a in arrays])


def _emul_nonzero(arrays, masks):
    """``emul`` of ``arrays`` given each one's nonzero mask, unbroadcast."""
    arrays = np.broadcast_arrays(*arrays)
    out = np.zeros(arrays[0].shape, dtype=object)
    nz = np.nonzero(functools.reduce(np.logical_and, masks))
    out[nz] = [functools.reduce(operator.mul, xs) for xs in zip(*(a[nz] for a in arrays))]
    return out


def mdot(a, b):
    """Matrix product over the last two axes of stacks of small matrices,
    (..., i, k) @ (..., k, j), broadcast over the leading axes.

    Each entry folds a[..., i, k] * b[..., k, j] left to right over ascending
    k, as ``np.matmul`` does, in one vectorised step per k; for 2 x 2 weight
    blocks that is several times faster than a BLAS call per block.  Object
    arrays multiply only nonzero pairs, as ``emul`` does, from the nonzero
    masks of a and b taken once; adding an exact zero never changes an mpmath
    value, so the result is ``np.matmul``'s bit for bit.
    """
    if a.dtype != object and b.dtype != object:
        def term(k):
            return a[..., :, k:k + 1] * b[..., k:k + 1, :]
    else:
        nz_a, nz_b = a.astype(bool), b.astype(bool)

        def term(k):
            col, row = np.s_[..., :, k:k + 1], np.s_[..., k:k + 1, :]
            return _emul_nonzero((a[col], b[row]), (nz_a[col], nz_b[row]))
    out = term(0)
    for k in range(1, a.shape[-1]):
        out = out + term(k)
    return out
