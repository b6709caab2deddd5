"""High-order finite differences on uniform grids.

Sixth-order central stencils in the interior; the three cells at each end
fall back to second-order one-sided estimates.  Callers that need full
accuracy mask the boundary cells (every use in this package does).
"""

from __future__ import annotations

import numpy as np

__all__ = ["derivative", "second_derivative", "cell_max", "local_max", "BOUNDARY_CELLS"]

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
    edge = np.gradient(y, h, edge_order=2)
    out[:3] = edge[:3]
    out[-3:] = edge[-3:]
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
