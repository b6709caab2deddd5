"""Jacobi elliptic functions and the complete elliptic integral of the first kind.

Real arguments, double precision, parameter convention m = k**2 with
m in [0, 1].  Everything rests on the arithmetic-geometric mean:
``complete_k`` is the AGM limit and ``jacobi_sncndn`` runs the descending
Landen ladder with backward recursion of the amplitude.  The module is
self-contained (no special-function library) and every function is pure
and reentrant.

The ladder for a given m is cached, so repeated evaluations at the same
parameter cost one sine/arcsine pass per level (8-10 levels in double
precision).  Arguments are reduced into [0, K] through the quarter-period
symmetries before the backward recursion, which keeps large-|x| calls as
accurate as small ones.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EllipticDomainError

__all__ = ["complete_k", "jacobi_sncndn"]

# Ladder cutoff: AGM converges quadratically, so c_n drops below this in
# well under 12 levels for every m in [0, 1).
_C_CUTOFF = 4.0e-16


@lru_cache(maxsize=256)
def _agm_ladder(m: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Scale factors a_i and cofactors c_i of the descending Landen ladder."""
    a = 1.0
    b = math.sqrt(1.0 - m)
    c = math.sqrt(m)
    a_seq = [a]
    c_seq = [c]
    while abs(c) > _C_CUTOFF * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        a_seq.append(a)
        c_seq.append(c)
    return tuple(a_seq), tuple(c_seq)


def _check_parameter(m: float, *, complete: bool) -> float:
    m = float(m)
    if math.isnan(m) or m < 0.0 or m > 1.0:
        raise EllipticDomainError(f"elliptic parameter m = {m!r} outside [0, 1]")
    if complete and m == 1.0:
        raise EllipticDomainError("K(m) diverges logarithmically as m -> 1")
    return m


def complete_k(m: float) -> float:
    """Complete elliptic integral K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m sin^2 theta).

    Computed as pi / (2 * AGM(1, sqrt(1-m))), which is exact to rounding.
    Monotone increasing on [0, 1); K(0) = pi/2; raises for m = 1.
    """
    m = _check_parameter(m, complete=True)
    a_seq, _ = _agm_ladder(m)
    return math.pi / (2.0 * a_seq[-1])


#: the ladder's functions: math for a float (numpy's per-call overhead on a
#: Python float costs several times the arithmetic), numpy for an ndarray
_MATH = (math.sin, math.cos, math.asin, math.sqrt)
_NUMPY = (np.sin, np.cos, np.arcsin, np.sqrt)


def _sncndn_reduced(y, m, a_seq, c_seq, fns):
    """sn, cn, dn at reduced arguments y in [0, K] by the functions fns; asin
    needs no clip, as (c_i / a_i) sin(phi) rounds to at most c_i / a_i < 1."""
    sin, cos, asin, sqrt = fns
    n = len(a_seq) - 1
    phi = math.ldexp(a_seq[n], n) * y
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + asin(c_seq[i] / a_seq[i] * sin(phi)))
    sn = sin(phi)
    # dn never vanishes for m < 1 (it is bounded below by sqrt(1-m)), so the
    # positive square root of the defining identity is the right branch.
    return sn, cos(phi), sqrt(1.0 - m * sn * sn)


def jacobi_sncndn(x, m: float):
    """Jacobi elliptic functions (sn, cn, dn) at real x for parameter m in [0, 1].

    `x` may be a float or an ndarray; the triple comes back with matching
    shape.  sn is 4K-periodic and odd, cn 4K-periodic and even, dn
    2K-periodic and even; the identities sn^2 + cn^2 = 1 and
    dn^2 + m sn^2 = 1 hold to rounding.

    The degenerate ends are exact branches rather than limits:
    m = 0 gives (sin, cos, 1) and m = 1 gives (tanh, sech, sech).
    """
    m = _check_parameter(m, complete=False)
    scalar = np.isscalar(x)
    if m == 0.0:
        if scalar:
            return math.sin(x), math.cos(x), 1.0
        x = np.asarray(x, dtype=float)
        return np.sin(x), np.cos(x), np.ones_like(x)
    if m == 1.0:
        if scalar:
            sech = 1.0 / math.cosh(x)
            return math.tanh(x), sech, sech
        x = np.asarray(x, dtype=float)
        sech = 1.0 / np.cosh(x)
        return np.tanh(x), sech, sech

    a_seq, c_seq = _agm_ladder(m)
    quarter = math.pi / (2.0 * a_seq[-1])  # K(m)

    if scalar:
        y = float(x) % (4.0 * quarter)
        sign_sn = sign_cn = 1.0
        if y >= 2.0 * quarter:
            y -= 2.0 * quarter
            sign_sn = sign_cn = -1.0
        if y > quarter:
            y = 2.0 * quarter - y
            sign_cn = -sign_cn
        sn, cn, dn = _sncndn_reduced(y, m, a_seq, c_seq, _MATH)
        return sign_sn * sn, sign_cn * cn, dn

    y = np.asarray(x, dtype=float) % (4.0 * quarter)
    upper = y >= 2.0 * quarter
    y = np.where(upper, y - 2.0 * quarter, y)
    mirror = y > quarter
    y = np.where(mirror, 2.0 * quarter - y, y)
    sn, cn, dn = _sncndn_reduced(y, m, a_seq, c_seq, _NUMPY)
    return np.where(upper, -sn, sn), np.where(upper != mirror, -cn, cn), dn
