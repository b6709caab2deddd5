"""Potential representations and their JSON round-tripping.

Every potential is an immutable callable V(x) defined for all real x,
with an optional spatial period.  Four kinds cover the needs of the
transform pipeline:

* ``LamePotential``   -- the finite-gap family n(n+1) m sn^2(x|m),
* ``ConstantPotential`` -- flat potential with a nominal period (free particle),
* ``TabulatedPotential`` -- uniform samples on a window, cubic spline inside,
  periodic wrap or an explicit asymptotic tail outside,
* ``ShiftedPotential``  -- base potential evaluated at x + delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .elliptic import complete_k, jacobi_sncndn

__all__ = [
    "Potential",
    "LamePotential",
    "ConstantPotential",
    "TabulatedPotential",
    "ShiftedPotential",
    "lame",
    "potential_from_dict",
    "potential_from_json",
]

DEFAULT_SAMPLES_PER_PERIOD = 2048


class Potential:
    """Base interface.  Instances are immutable and safe to share across workers.
    V must accept a float or an array of x: the integrator calls it on both.

    ``even`` promises V(-x) == V(x) for every x.  It is a property of the
    potential type, set to True only by a class whose every instance is
    even; ``floquet.discriminants`` then integrates half a period.
    """

    #: spatial period T > 0, or None for aperiodic specs
    period: float | None = None
    #: V(-x) == V(x) for every instance of the class
    even = False

    def __call__(self, x):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class LamePotential(Potential):
    """V(x) = n(n+1) m sn^2(x|m), period 2K(m), amplitude n(n+1)m."""

    even = True
    n: int
    m: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(
                "Lame index n must be a positive integer; use ConstantPotential "
                "for the free particle"
            )
        if not 0.0 < self.m < 1.0:
            raise ValueError("Lame parameter m must lie strictly inside (0, 1)")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", float(self.m))

    @property
    def period(self) -> float:
        # period of sn^2, half the 4K period of sn itself
        return 2.0 * complete_k(self.m)

    @property
    def amplitude(self) -> float:
        return self.n * (self.n + 1) * self.m

    @property
    def band_window(self) -> tuple[float, float]:
        """Energy window (e_min, e_max) holding all 2n+1 band edges.

        The edges lie in (0, n(n+1)): V >= 0 bounds them below, the closed
        forms bound them above for n <= 3, and for n <= 6 so do the finite
        Lame-polynomial matrices that the tests check ``band_edges`` against.
        The amplitude n(n+1)m bounds nothing: the top edge lies above it.
        """
        return -0.5, self.n * (self.n + 1) + 1.0

    def __call__(self, x):
        sn, _, _ = jacobi_sncndn(x, self.m)
        return self.amplitude * sn * sn

    def to_dict(self) -> dict:
        return {"kind": "lame", "n": self.n, "m": self.m}


def lame(n: int, m: float) -> LamePotential:
    """The Lame potential of index n >= 1 and parameter m in (0, 1)."""
    return LamePotential(n, m)


@dataclass(frozen=True)
class ConstantPotential(Potential):
    """Flat potential; the period is nominal and only fixes the Floquet cell."""

    even = True
    value: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("nominal period must be positive")

    def __call__(self, x):
        if np.isscalar(x):
            return self.value
        return np.full(np.shape(x), self.value, dtype=float)

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.value, "period": self.period}


class TabulatedPotential(Potential):
    """Uniform samples over a window; cubic interpolation inside, tail outside.

    With ``tail=None`` the window must span an integer number of periods and
    evaluation wraps periodically, so the table represents a genuinely
    periodic potential.  With an explicit tail (any other Potential) the
    window holds the locally distorted region and the tail takes over beyond
    it.
    """

    def __init__(self, x_lo: float, dx: float, values, period: float, tail: Potential | None = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 8:
            raise ValueError("need a 1-d array of at least 8 samples")
        if dx <= 0 or period <= 0:
            raise ValueError("dx and period must be positive")
        self.x_lo = float(x_lo)
        self.dx = float(dx)
        self.period = float(period)
        self.tail = tail
        self.x_hi = self.x_lo + self.dx * (values.size - 1)
        span = self.x_hi - self.x_lo
        if tail is None:
            cycles = span / self.period
            if abs(cycles - round(cycles)) > 1e-8 * max(1.0, cycles) or round(cycles) < 1:
                raise ValueError(
                    "a tabulated potential without a tail must span an integer "
                    "number of periods"
                )
            closure = abs(values[-1] - values[0])
            scale = float(np.max(np.abs(values)))
            if closure > 1e-6 * scale + 1e-12:
                raise ValueError(
                    f"periodic table does not close: |V(x_hi) - V(x_lo)| = {closure:.3e}"
                )
            values = values.copy()
            values[-1] = values[0]  # enforce exact closure for the periodic spline
            self._spline = CubicSpline(
                self.x_lo + self.dx * np.arange(values.size), values, bc_type="periodic"
            )
        else:
            self._spline = CubicSpline(
                self.x_lo + self.dx * np.arange(values.size), values
            )
        self.values = values
        self._span = span
        # flat coefficient view for the fast scalar path
        self._coeffs = self._spline.c

    @classmethod
    def from_function(
        cls,
        fn,
        x_lo: float,
        x_hi: float,
        period: float,
        samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
        tail: Potential | None = None,
    ) -> "TabulatedPotential":
        """Sample a callable on [x_lo, x_hi] at the given per-period density."""
        n = int(round((x_hi - x_lo) / period * samples_per_period))
        xs = np.linspace(x_lo, x_hi, n + 1)
        return cls(x_lo, xs[1] - xs[0], np.asarray(fn(xs), dtype=float), period, tail)

    def _eval_scalar(self, x: float) -> float:
        if self.tail is None:
            x = self.x_lo + (x - self.x_lo) % self._span
        elif x < self.x_lo or x > self.x_hi:
            return float(self.tail(x))
        i = int((x - self.x_lo) / self.dx)
        i = min(max(i, 0), self.values.size - 2)
        t = x - (self.x_lo + i * self.dx)
        c = self._coeffs
        return ((c[0, i] * t + c[1, i]) * t + c[2, i]) * t + c[3, i]

    def __call__(self, x):
        if np.isscalar(x):
            return self._eval_scalar(float(x))
        x = np.asarray(x, dtype=float)
        if self.tail is None:
            return self._spline(self.x_lo + (x - self.x_lo) % self._span)
        out = np.empty_like(x)
        inside = (x >= self.x_lo) & (x <= self.x_hi)
        out[inside] = self._spline(x[inside])
        if np.any(~inside):
            out[~inside] = self.tail(x[~inside])
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "x_lo": self.x_lo,
            "dx": self.dx,
            "period": self.period,
            "values": self.values.tolist(),
            "tail": None if self.tail is None else self.tail.to_dict(),
        }


class ShiftedPotential(Potential):
    """Base potential with displaced argument: V(x) = base(x + delta).

    Nested shifts flatten, so Shifted(Shifted(V, a), b) == Shifted(V, a + b)
    pointwise by construction.
    """

    def __init__(self, base: Potential, delta: float):
        if isinstance(base, ShiftedPotential):
            delta = delta + base.delta
            base = base.base
        self.base = base
        self.delta = float(delta)
        self.period = base.period

    def __call__(self, x):
        return self.base(x + self.delta)

    def to_dict(self) -> dict:
        return {"kind": "shifted", "delta": self.delta, "base": self.base.to_dict()}

    def __repr__(self):
        return f"ShiftedPotential({self.base!r}, delta={self.delta})"


def potential_from_dict(doc: dict) -> Potential:
    """Rebuild a potential from its JSON document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a potential document must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "lame":
        return LamePotential(doc["n"], doc["m"])
    if kind == "constant":
        return ConstantPotential(doc.get("value", 0.0), doc["period"])
    if kind == "shifted":
        return ShiftedPotential(potential_from_dict(doc["base"]), doc["delta"])
    if kind == "tabulated":
        tail = doc.get("tail")
        return TabulatedPotential(
            doc["x_lo"],
            doc["dx"],
            doc["values"],
            doc["period"],
            None if tail is None else potential_from_dict(tail),
        )
    raise ValueError(f"unknown potential kind: {kind!r}")


def potential_from_json(text: str) -> Potential:
    return potential_from_dict(json.loads(text))
