"""Jacobi elliptic functions and the complete elliptic integral of the first kind.

Real arguments, double precision, parameter convention m = k**2 with
m in [0, 1].  Everything rests on the arithmetic-geometric mean:
``complete_k`` is the AGM limit; ``jacobi_sncndn`` and ``sn_squared`` climb
the descending Landen ladder in its Gauss form (DLMF 22.7.1-3) from sin and
cos at its last level, where the modulus is below rounding.  The module is
self-contained (no special-function library); every function is pure.

The ladder for each m is cached; an evaluation costs one sine (and a cosine
for the triple) and a few products per level (8-10 levels in double precision).
Arguments are first reduced into [0, K] by the quarter-period symmetries,
which keeps large-|x| calls as accurate as small ones.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EllipticDomainError

__all__ = ["complete_k", "jacobi_sncndn", "sn_squared"]

# Ladder cutoff: AGM converges quadratically, so c_n drops below this in
# well under 12 levels for every m in [0, 1).
_C_CUTOFF = 4.0e-16


@lru_cache(maxsize=256)
def _agm_ladder(m: float) -> tuple[float, tuple[float, ...]]:
    """AGM limit a_N and the Landen moduli k_i = c_i / a_i, last level first."""
    a = 1.0
    b = math.sqrt(1.0 - m)
    c = math.sqrt(m)
    moduli = []
    while abs(c) > _C_CUTOFF * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        moduli.append(c / a)
    return a, tuple(reversed(moduli))


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
    return math.pi / (2.0 * _agm_ladder(m)[0])


def _sncndn_reduced(y, agm, moduli):
    """sn, cn, dn at y in [0, K]: each k maps them to ((1+k) sn, cn dn, 1-t) / (1+t), t = k sn^2."""
    u = agm * y
    s, c, d = np.sin(u), np.cos(u), np.ones_like(u)
    for k in moduli:
        t = k * s * s
        s, c, d = (1.0 + k) * s / (1.0 + t), c * d / (1.0 + t), (1.0 - t) / (1.0 + t)
    return s, c, d


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
    if np.isscalar(x):
        return tuple(float(f[0]) for f in jacobi_sncndn(np.array([x], dtype=float), m))
    x = np.asarray(x, dtype=float)
    if m == 0.0:
        return np.sin(x), np.cos(x), np.ones_like(x)
    if m == 1.0:
        sech = 1.0 / np.cosh(x)
        return np.tanh(x), sech, sech

    agm, moduli = _agm_ladder(m)
    quarter = math.pi / (2.0 * agm)  # K(m)
    y = x % (4.0 * quarter)
    upper = y >= 2.0 * quarter
    y = np.where(upper, y - 2.0 * quarter, y)
    mirror = y > quarter
    y = np.where(mirror, 2.0 * quarter - y, y)
    sn, cn, dn = _sncndn_reduced(y, agm, moduli)
    return np.where(upper, -sn, sn), np.where(upper != mirror, -cn, cn), dn


def sn_squared(x, m: float):
    """sn^2(x|m) at real x (a float or an ndarray) for parameter m in [0, 1].

    The sn update of ``jacobi_sncndn``'s recursion alone, on |x| reduced mod 2K
    and mirrored about K.  m = 0 gives sin^2 and m = 1 tanh^2.  A float x comes
    back a float, through the array path as in ``jacobi_sncndn``.
    """
    m = _check_parameter(m, complete=False)
    if np.isscalar(x):
        return float(sn_squared(np.array([x], dtype=float), m)[0])
    x = np.asarray(x, dtype=float)
    if m == 0.0 or m == 1.0:
        s = (np.sin if m == 0.0 else np.tanh)(x)
        return s * s

    agm, moduli = _agm_ladder(m)
    half = math.pi / agm  # 2K(m), the period of sn^2
    y = np.fmod(np.abs(x), half)  # exact, and twice as fast as numpy's floored %
    s = np.sin(agm * np.minimum(y, half - y))
    for k in moduli:
        s = (1.0 + k) * s / (1.0 + k * s * s)
    return s * s
