"""High-order finite differences on uniform grids, cubic Hermite
interpolation of samples and slopes, the sign changes of sampled data, and a
bracketing root finder.

Sixth-order central stencils in the interior; the three cells at each end
fall back to second-order one-sided estimates.  Callers that need full
accuracy mask the boundary cells; a tailed ``TabulatedPotential`` keeps
them as the slopes of its three end cells.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["derivative", "second_derivative", "cell_max", "local_max", "sign_changes",
           "itp_root", "BOUNDARY_CELLS"]

BOUNDARY_CELLS = 3

_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _apply_stencil(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    n = y.size
    for k, coeff in enumerate(w):
        if coeff != 0.0:
            out[3 : n - 3] += coeff * y[k : n - 6 + k]
    return out


def derivative(y, h: float) -> np.ndarray:
    """dy/dx on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    if y.size < 7:
        return np.gradient(y, h, edge_order=2)
    out = _apply_stencil(y, _D1) / h
    # np.gradient's values at the three end points read seven samples at most
    out[:3] = np.gradient(y[:7], h, edge_order=2)[:3]
    out[-3:] = np.gradient(y[-7:], h, edge_order=2)[-3:]
    return out


def second_derivative(y, h: float) -> np.ndarray:
    """d2y/dx2 on a uniform grid of spacing h."""
    y = np.asarray(y, dtype=float)
    if y.size < 7:
        g = np.gradient(y, h, edge_order=2)
        return np.gradient(g, h, edge_order=2)
    out = _apply_stencil(y, _D2) / (h * h)
    out[:3] = out[3]
    out[-3:] = out[-4]
    return out


class CubicHermite:
    """Cubic Hermite interpolant of samples f and slopes fp at spacing h,
    called at t, the position in units of h from the first sample."""

    def __init__(self, f, fp, h: float):
        self.f, self.fp, self.h = f, fp, h

    def __call__(self, t):
        f, fp, h = self.f, self.fp, self.h
        k = np.minimum(t.astype(int), f.size - 2)
        s = t - k
        return (((1.0 + 2.0 * s) * f[k] + s * h * fp[k]) * (1.0 - s) ** 2
                + ((3.0 - 2.0 * s) * f[k + 1] - (1.0 - s) * h * fp[k + 1]) * s * s)


def cell_max(a, spp: int) -> np.ndarray:
    """Max of a over each period cell, the inclusive segments [c*spp, (c+1)*spp]
    of its last axis, which holds cells*spp + 1 samples; shape (..., cells)."""
    a = np.asarray(a)
    cells = (a.shape[-1] - 1) // spp
    body = a[..., : cells * spp].reshape(a.shape[:-1] + (cells, spp)).max(axis=-1)
    return np.maximum(body, a[..., spp::spp])


def local_max(a, spp: int) -> np.ndarray:
    """cell_max spread back over the samples of a; a sample shared by two
    cells takes the later cell's value."""
    top = cell_max(a, spp)
    return np.append(np.repeat(top, spp, axis=-1), top[..., -1:], axis=-1)


def sign_changes(a) -> np.ndarray:
    """Whether neighbours along the last axis of a have opposite signs, shape
    (..., n - 1); a zero or NaN sample changes no sign.  Only comparisons,
    so no product of samples can overflow."""
    neg, pos = a < 0.0, a > 0.0
    return (neg[..., :-1] & pos[..., 1:]) | (pos[..., :-1] & neg[..., 1:])


def _itp(f, a, b, f_a, f_b, width, kappa1):
    """``itp_root`` on the brackets [a_k, b_k] (arrays) in lockstep, each with
    the arithmetic of the one-bracket loop: a round calls f once, on the
    points of the brackets still open.  f rises through each root where
    f_b >= 0, and falls where f_b < 0 (so -f is used there).  Returns the
    midpoints of the final brackets."""
    a, b, f_a, f_b = (np.array(z, dtype=float) for z in (a, b, f_a, f_b))
    s = np.where(f_b < 0.0, -1.0, 1.0)  # s f rises through each root
    f_a, f_b = s * f_a, s * f_b
    n_max = np.array([max(0, math.ceil(math.log2(max(w, width) / width))) + 1
                      for w in (b - a).tolist()], dtype=int)
    for j in range(n_max.max(initial=0)):
        k = np.flatnonzero((j < n_max) & (b - a > width))
        if k.size == 0:
            break
        ak, bk, f_ak, f_bk = a[k], b[k], f_a[k], f_b[k]
        mid = 0.5 * (ak + bk)
        x_f = (f_bk * ak - f_ak * bk) / (f_bk - f_ak)
        sigma = np.copysign(1.0, mid - x_f)
        # squared by Python's pow, as in the loop: a product rounds differently at times
        delta = np.maximum(kappa1 * np.array([w**2 for w in (bk - ak).tolist()]), 0.5 * width)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        r = np.ldexp(0.5 * width, n_max[k] - j) - 0.5 * (bk - ak)
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
        y = s[k] * f(x)
        low = y < 0.0
        a[k], f_a[k] = np.where(low, x, ak), np.where(low, y, f_ak)
        b[k], f_b[k] = np.where(low, bk, x), np.where(low, f_bk, y)
    return 0.5 * (a + b)


def itp_root(f, a, b, f_a, f_b, width, kappa1):
    """Root of f on [a, b], f_a = f(a) <= 0 <= f_b = f(b), by ITP (Oliveira &
    Takahashi, ACM TOMS 47 (2021) 5; kappa2 = 2, n0 = 1): each step evaluates
    f once, strictly inside the bracket, at the regula falsi point moved
    toward the midpoint by max(kappa1 (b - a)^2, width / 2) (the floor, as
    Brent's smallest step, outlasts rounding) and projected into a ball about
    the midpoint that shrinks like bisection's bracket.  Superlinear on a
    smooth f, at most one step more than bisection on any f; returns the
    midpoint once the bracket is no wider than ``width``.  ``_itp`` on one
    bracket; f is called with a float.
    """
    return float(_itp(lambda x: np.array([f(float(x[0]))], dtype=float),
                      [a], [b], [f_a], [f_b], width, kappa1)[0])
