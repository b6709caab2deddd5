"""Closed-form band edges of the Lame potentials n(n+1) m sn^2(x|m), n <= 3.

The 2n+1 edges are the eigenvalues of the Lame-polynomial problems
(Arscott, *Periodic Differential Equations*, 1964; Finkel, Gonzalez-Lopez &
Rodriguez, J. Phys. A 33 (2000) 1519).  The benchmark uses them to place
factorization energies strictly inside forbidden regions, so every request
is valid by construction, and to check the edges the program reports.
"""

from __future__ import annotations

import math


def lame_edges(n: int, m: float) -> list[float]:
    """All 2n+1 band edges of the Lame potential of index n, ascending."""
    if n == 1:
        edges = [m, 1.0, 1.0 + m]
    elif n == 2:
        r = 2.0 * math.sqrt(1.0 - m + m * m)
        edges = [2.0 * (1.0 + m) - r, 1.0 + m, 1.0 + 4.0 * m, 4.0 + m, 2.0 * (1.0 + m) + r]
    elif n == 3:
        a = 2.0 * math.sqrt(1.0 - m + 4.0 * m * m)
        b = 2.0 * math.sqrt(4.0 - m + m * m)
        c = 2.0 * math.sqrt(4.0 - 7.0 * m + 4.0 * m * m)
        edges = [
            2.0 + 5.0 * m - a, 2.0 + 5.0 * m + a,
            5.0 + 2.0 * m - b, 5.0 + 2.0 * m + b,
            5.0 + 5.0 * m - c, 5.0 + 5.0 * m + c,
            4.0 + 4.0 * m,
        ]
    else:
        raise ValueError(f"no closed form for Lame index n = {n}")
    return sorted(edges)
