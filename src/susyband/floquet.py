"""Transfer-matrix machinery for -psi'' + V(x) psi = E psi on periodic potentials.

The first-order system d/dx (psi, psi') = [[0, 1], [V - E, 0]] (psi, psi')
is integrated with an embedded Dormand-Prince 5(4) pair.  The two
canonical columns (1,0) and (0,1) propagate together, so the result of one
pass is the full transfer matrix b(x1 <- x0); a whole batch of energies can
ride along in one adaptive integration since V(x) is shared between them,
which is what makes dense discriminant sweeps cheap.  One loop,
``_advance``, takes every step.  Its batch axis holds either energies or,
for a sampled propagation at one energy, the cells between breakpoints:
each cell starts from the identity, all cells share the step and one
vector call of V per step, and the trace is their running product.  The
tableau exists once, as the arrays _A, _B, _E and _C, and ``_dp5_step``
forms each stage as one weighted sum over a preallocated stage buffer.

On top of the propagator sit the one-period (Floquet) matrix, its trace
D(E) (from half a period for an even potential), the |D| trichotomy
classifier, the multipliers and Bloch eigenvectors read off the matrix, and
the band-edge finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StiffIntegrationError
from .potentials import Potential

__all__ = [
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "EDGE_TOL",
    "TransferMatrix",
    "EnergyClass",
    "BandStructure",
    "propagate",
    "transfer_matrix",
    "transfer_matrices",
    "discriminant",
    "discriminants",
    "classify",
    "classify_discriminant",
    "multipliers_from_discriminant",
    "growing_multiplier",
    "bloch_vectors",
    "band_edges",
    "ksection",
    "SECTIONS",
    "write_discriminant_csv",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
#: |D| within this of 2 classifies an energy as a band edge
EDGE_TOL = 1e-7

# Dormand-Prince 5(4) tableau (FSAL).  Stage i is the slope at x + C[i] h of
# y + h A[i, :i] . k[:i]; the step is h B . k[:6], its error estimate
# h E . k, where k[6] is the slope at the end of the step.
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])

_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9
#: smallest step, relative to max(1, |x|) at the far end, before StiffIntegrationError
_H_FLOOR = 64.0 * np.finfo(float).eps


def _deriv_into(out, v_x, e, y):
    """out <- (y[1], (V - E) y[0]), the RHS of the matrix Schrodinger system."""
    out[0] = y[1]
    np.multiply(v_x - e, y[0], out=out[1])


def _dp5_step(k, vs, e, y, h: float):
    """One DP5 step of y by h, its stages kept in the buffer k of shape (7,) + y.shape.

    k[0] must hold the slope at the start of the step, and vs[i - 1] is V
    at x + C[i] h for the stages i = 1..5.  Fills k[1:] and returns the
    increment h B . k[:6] and the error h E . k.
    """
    rows = k.reshape(7, -1)
    for i in range(1, 6):
        _deriv_into(k[i], vs[i - 1], e, y + h * (_A[i, :i] @ rows[:i]).reshape(y.shape))
    d = h * (_B @ rows[:6]).reshape(y.shape)
    _deriv_into(k[6], vs[4], e, y + d)
    return d, h * (_E @ rows).reshape(y.shape)


def _advance(v, e, x0, span: float, y, rtol: float):
    """Adaptive DP5(4) advance of the batch y (its trailing axis) over s from
    0 to span, either sign, at x = x0 + s; all columns share the step.

    * A float x0 makes y an energy batch (`e` broadcasts against it), and
      `v` is called on scalars, once per stage abscissa.
    * An array x0 makes y a batch of cells at one energy, column j from
      x0[j], and `v` is called once per step on all stage abscissae.  On a
      step underflow the column with the largest last error ratio (NaN as
      inf) is blamed, once the columns before it ran on their own, so the
      error names the first failure in x.
    """
    if span == 0.0:
        return y
    cells = np.ndim(x0) > 0
    direction = 1.0 if span > 0 else -1.0
    s = 0.0
    v_x = v(x0)
    k = np.empty((7,) + y.shape)
    _deriv_into(k[0], v_x, e, y)
    nodes = _C[1:].tolist()
    y0, ratios = y, np.zeros(y.shape)
    floor = _H_FLOOR * max(1.0, float(np.max(np.abs(x0))) + abs(span))

    # First trial step from the local oscillation scale.
    k_scale = math.sqrt(max(1.0, float(np.max(np.abs(v_x - e)))))
    h = direction * min(abs(span), 0.1 / k_scale)

    while (span - s) * direction > 0.0:
        if abs(h) > abs(span - s):
            h = span - s
        x = x0 + s
        if abs(h) < floor:
            if cells:
                last = np.max(ratios, axis=(0, 1))
                j = int(np.argmax(np.where(np.isnan(last), np.inf, last)))
                if j:
                    _advance(v, e, x0[:j], span, y0[..., :j], rtol)
                x = float(x[j])
            raise StiffIntegrationError("step size underflow in propagation", x)

        if cells:
            vs = np.asarray(v((x + _C[1:, None] * h).ravel()), dtype=float).reshape(5, -1)
        else:
            vs = [v(x + c * h) for c in nodes]
        y_new, err = _dp5_step(k, vs, e, y, h)
        y_new += y  # in place: the increment's array becomes y_new
        scale = DEFAULT_ATOL + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratios = np.abs(err) / scale
        err_norm = float(np.max(ratios))

        if err_norm <= 1.0:
            s += h
            y = y_new
            k[0] = k[6]
            factor = _MAX_GROW if err_norm == 0.0 else min(
                _MAX_GROW, max(_MIN_SHRINK, _SAFETY * err_norm ** -0.2)
            )
            h *= factor
        else:
            h *= max(_MIN_SHRINK, _SAFETY * err_norm ** -0.2)
    return y


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 unit-determinant matrix carrying (psi, psi') across [x0, x1]."""

    matrix: np.ndarray
    x0: float
    x1: float
    energy: float

    @property
    def det(self) -> float:
        b = self.matrix
        return float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        # composition b(x2 <- x0) = b(x2 <- x1) @ b(x1 <- x0)
        return TransferMatrix(self.matrix @ other.matrix, other.x0, self.x1, self.energy)


def propagate(v: Potential, energy: float, x0: float, x1: float, samples: int | None = None):
    """Transfer matrix b(x1 <- x0) at the given energy, optionally with a trace.

    With ``samples=n`` the interval is traversed through n+1 uniform
    breakpoints and the canonical-column matrices b(x_k <- x0) are recorded,
    so (psi, psi')(x_k) = b_k @ (psi, psi')(x0) for any initial data.  One
    ``_advance`` pass integrates every cell b(x_k <- x_{k-1}) from the
    identity, and b_k is the running product of the cells.  That pass calls
    ``v`` only on arrays, so it needs a vector-capable V; without
    ``samples`` V is called on scalars.

    Returns (TransferMatrix, trace) where trace is None or an array of shape
    (n+1, 2, 2).
    """
    if not x1 > x0:
        raise ValueError("propagation interval must satisfy x0 < x1")
    if samples is None:
        y = transfer_matrices(v, [energy], x0, x1)[0]
        return TransferMatrix(y, x0, x1, float(energy)), None
    starts = np.linspace(x0, x1, samples + 1)[:-1]
    eye = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, samples))
    span = (x1 - x0) / samples
    cells = np.moveaxis(_advance(v, float(energy), starts, span, eye, DEFAULT_RTOL), 2, 0)
    trace = np.empty((samples + 1, 2, 2))
    trace[0] = np.eye(2)
    for i, cell in enumerate(cells, 1):
        trace[i] = cell @ trace[i - 1]
    return TransferMatrix(trace[-1], x0, x1, float(energy)), trace


def transfer_matrix(v, energy, x0, x1) -> TransferMatrix:
    return propagate(v, energy, x0, x1)[0]


def transfer_matrices(v, energies, x0, x1, *, rtol=DEFAULT_RTOL):
    """One-pass transfer matrices b(x1 <- x0) for a whole batch of energies;
    shape (nE, 2, 2).  Either direction is allowed: with x1 < x0 the result
    is the backward matrix, the inverse of b(x0 <- x1).

    The potential is evaluated once per integrator stage for the entire
    batch, so a dense energy sweep costs barely more than a single solve.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1:
        raise ValueError("energies must be one-dimensional")
    if e.size == 0:
        return np.empty((0, 2, 2))
    y0 = np.broadcast_to(np.eye(2)[:, :, None], (2, 2, e.size)).copy()
    y = _advance(v, e[None, :], x0, x1 - x0, y0, rtol)
    return np.moveaxis(y, 2, 0)


def _require_period(v: Potential) -> float:
    period = v.period
    if period is None:
        raise ValueError("potential has no period; Floquet analysis needs one")
    return float(period)


def discriminant(v, energy) -> float:
    """D(E) = Tr b(T <- 0), the trace of the one-period Floquet matrix."""
    return float(discriminants(v, [energy])[0])


def discriminants(v, energies, *, rtol=DEFAULT_RTOL):
    """Batched discriminant sweep over an array of energies.

    An even potential (``v.even``) is integrated over half a period only:
    with b(T/2 <- 0) = [[a, b], [c, d]], D = 2(ad + bc) (Magnus & Winkler,
    Hill's Equation, 1966, sec. 1.1).
    """
    period = _require_period(v)
    if v.even:
        ms = transfer_matrices(v, energies, 0.0, 0.5 * period, rtol=rtol)
        return 2.0 * (ms[:, 0, 0] * ms[:, 1, 1] + ms[:, 0, 1] * ms[:, 1, 0])
    ms = transfer_matrices(v, energies, 0.0, period, rtol=rtol)
    return ms[:, 0, 0] + ms[:, 1, 1]


TAG_ALLOWED_BAND = "allowed_band"
TAG_EDGE_PERIODIC = "band_edge_periodic"
TAG_EDGE_ANTIPERIODIC = "band_edge_antiperiodic"
TAG_GAP = "gap"
_EDGE_KIND = {2.0: TAG_EDGE_PERIODIC, -2.0: TAG_EDGE_ANTIPERIODIC}


@dataclass(frozen=True)
class EnergyClass:
    """Spectral classification of one energy from the |D| trichotomy."""

    tag: str
    discriminant: float
    multipliers: tuple[complex, complex]


def growing_multiplier(d):
    """The Floquet multiplier of modulus >= 1 for a discriminant |D| >= 2,
    D/2 + copysign(sqrt(D^2/4 - 1), D), for a float or an array; its partner
    is the reciprocal, which avoids the cancellation in D/2 - sqrt(...)."""
    return 0.5 * d + np.copysign(np.sqrt(0.25 * d * d - 1.0), d)


def multipliers_from_discriminant(d: float) -> tuple[complex, complex]:
    """Floquet multipliers beta_pm = D/2 +- sqrt(D^2/4 - 1); product is 1."""
    half = 0.5 * d
    disc = half * half - 1.0
    if disc >= 0.0:
        grow = float(growing_multiplier(d))
        return (grow, 1.0 / grow) if d > 0.0 else (1.0 / grow, grow)
    root = math.sqrt(-disc)
    return complex(half, root), complex(half, -root)


def bloch_vectors(ms, beta):
    """Eigenvectors of the Floquet matrices ms, shape (n, 2, 2), for the
    multipliers beta, shape (n,); one row per matrix.

    Each vector is read from the defect row of ms - beta of larger weight,
    so a Jordan block at a band edge needs no eigen-decomposition.  It is
    oriented along the row (b01, beta - b00), which makes it vary
    continuously with the energy, and scaled to a largest entry of 1.  A
    multiple of the identity gets (1, 0).
    """
    r1 = np.stack((ms[:, 0, 1], beta - ms[:, 0, 0]), axis=1)
    r2 = np.stack((beta - ms[:, 1, 1], ms[:, 1, 0]), axis=1)
    vec = np.where((np.abs(r1).sum(axis=1) >= np.abs(r2).sum(axis=1))[:, None], r1, r2)
    vec *= np.where(np.sum(vec * r1, axis=1) < 0.0, -1.0, 1.0)[:, None]
    norm = np.max(np.abs(vec), axis=1, keepdims=True)
    vec /= np.where(norm == 0.0, 1.0, norm)
    vec[norm[:, 0] == 0.0] = (1.0, 0.0)
    return vec


def classify_discriminant(d: float) -> EnergyClass:
    if abs(d - 2.0) <= EDGE_TOL:
        return EnergyClass(TAG_EDGE_PERIODIC, d, (1.0, 1.0))
    if abs(d + 2.0) <= EDGE_TOL:
        return EnergyClass(TAG_EDGE_ANTIPERIODIC, d, (-1.0, -1.0))
    tag = TAG_ALLOWED_BAND if abs(d) < 2.0 else TAG_GAP
    return EnergyClass(tag, d, multipliers_from_discriminant(d))


def classify(v, energy) -> EnergyClass:
    """Classify an energy as allowed band, band edge, or gap."""
    return classify_discriminant(discriminant(v, energy))


@dataclass(frozen=True)
class BandStructure:
    """Ordered band edges with the intervals they delimit.

    ``edges`` holds only the edges of genuinely open bands and gaps (kinds
    parallel: periodic/antiperiodic); ``touching`` lists double roots where a
    gap has closed, reported as single coincident-pair energies.  The last
    band is truncated at the search window.
    """

    edges: tuple[float, ...]
    kinds: tuple[str, ...]
    bands: tuple[tuple[float, float], ...]
    gaps: tuple[tuple[float, float], ...]
    touching: tuple[float, ...]
    window: tuple[float, float]

    def gap_index(self, energy: float) -> int | None:
        """Index of the forbidden region containing energy: 0 below the first
        edge, k for the k-th open gap, None inside a band."""
        if not self.edges:
            return None
        if energy < self.edges[0]:
            return 0
        for i, (lo, hi) in enumerate(self.gaps):
            if lo < energy < hi:
                return i + 1
        return None


#: cells per k-section sweep of a root bracket; each sweep gains log2 of it
SECTIONS = 64
#: grid points per sweep of an extremum search, and the number of sweeps
_EXTREMUM_POINTS = 65
_EXTREMUM_SWEEPS = 3
#: relative tolerance of the coarse band-edge scan, and k-section sweeps per
#: edge bracket (7 sweeps of 64 sections narrow a bracket by 2**-42)
_SCAN_RTOL = 1e-8
_EDGE_SWEEPS = 7


def ksection(g, lo, hi, s_lo, *, sweeps: int, width: float = 0.0):
    """Batched SECTIONS-fold k-section for roots of g on the brackets [lo_i, hi_i].

    ``g`` maps an (n_brackets, SECTIONS - 1) array of energies, row i inside
    bracket i, to the values of g there; it should evaluate them all in one
    batch.  ``s_lo`` is the sign of g at each lo.  Each sweep evaluates the
    interior section points of every bracket and keeps, per bracket, the
    first cell whose right end no longer has the sign s_lo_i (the last cell
    when none does).  Bracket ends are never evaluated again, so a root on a
    section point, where the sign of g may depend on the batch, stays
    bracketed.  Stops after ``sweeps`` sweeps, or once every bracket is
    narrower than ``width``, and returns the bracket midpoints.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    s_lo = np.asarray(s_lo, dtype=float)[:, None]
    frac = np.arange(1, SECTIONS) / SECTIONS
    rows = np.arange(lo.size)
    for _ in range(sweeps):
        if np.all(hi - lo < width):
            break
        inner = lo[:, None] + (hi - lo)[:, None] * frac
        flipped = np.sign(g(inner)) != s_lo
        cell = np.where(flipped.any(axis=1), flipped.argmax(axis=1), SECTIONS - 1)
        points = np.concatenate((lo[:, None], inner, hi[:, None]), axis=1)
        lo, hi = points[rows, cell], points[rows, cell + 1]
    return 0.5 * (lo + hi)


def _grid_extrema(v, lo, hi, sign):
    """Batched grid search for the maximum of sign_i * D on each [lo_i, hi_i].

    Every sweep lays _EXTREMUM_POINTS points across each interval, evaluates
    them all in one batch, and narrows each interval to the two cells around
    its best point.  Returns the best energies and their D values, and D at
    the original interval ends (which the first sweep includes).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    sign = np.asarray(sign, dtype=float)[:, None]
    frac = np.linspace(0.0, 1.0, _EXTREMUM_POINTS)
    rows = np.arange(lo.size)
    ends = None
    for _ in range(_EXTREMUM_SWEEPS):
        grid = lo[:, None] + (hi - lo)[:, None] * frac
        d = discriminants(v, grid.ravel()).reshape(grid.shape)
        if ends is None:
            ends = d[:, 0], d[:, -1]
        best = np.argmax(sign * d, axis=1)
        e_best, d_best = grid[rows, best], d[rows, best]
        lo = grid[rows, np.maximum(best - 1, 0)]
        hi = grid[rows, np.minimum(best + 1, _EXTREMUM_POINTS - 1)]
    return e_best, d_best, ends


def band_edges(
    v: Potential, e_min: float, e_max: float, *, scan_per_unit: float = 400.0
) -> BandStructure:
    """Locate all band edges (roots of D = +-2) inside [e_min, e_max].

    A coarse scan, ``scan_per_unit`` energies per unit at the loose
    _SCAN_RTOL, brackets the sign changes of D -+ 2 and flags the interior
    extrema of D within 0.05 of +-2.  All refinement runs at DEFAULT_RTOL,
    and every refinement sweep is one batched ``discriminants`` call
    covering all brackets or all extrema at once:

    * extrema are located by a grid search (three sweeps of 65 points, each
      narrowing to the neighbours of the best point).  One within EDGE_TOL
      of +-2 is a touching point, a closed gap where D is tangent to +-2;
      touching points are reported separately and do not count as edges.
      One beyond +-2 between two unbracketed scan cells yields a pair of
      roots that slipped between scan points.
    * each root bracket is narrowed by 64-fold k-section in _EDGE_SWEEPS
      sweeps, to at most 2**-42 of a scan cell.
    """
    if not e_max > e_min:
        raise ValueError("need e_min < e_max")
    n_scan = max(64, int(math.ceil((e_max - e_min) * scan_per_unit)))
    es = np.linspace(e_min, e_max, n_scan + 1)
    ds = discriminants(v, es, rtol=_SCAN_RTOL)

    roots: list[tuple[float, str]] = []
    bracketed_cells: set[int] = set()
    # (lo, hi, sign of D - target at lo, target) of every root bracket
    brackets: list[tuple[float, float, float, float]] = []
    for target in (2.0, -2.0):
        g = ds - target
        cells = np.nonzero(g[:-1] * g[1:] < 0.0)[0]
        bracketed_cells.update(int(i) for i in cells)
        brackets.extend((es[i], es[i + 1], np.sign(g[i]), target) for i in cells)
        roots.extend((float(es[i]), _EDGE_KIND[target]) for i in np.nonzero(g == 0.0)[0])

    # Interior extrema near +-2: candidates for closed gaps (D tangent to
    # +-2) or for a root pair that slipped between scan points.
    touching: list[float] = []
    slopes = np.diff(ds)
    turning = np.nonzero(slopes[:-1] * slopes[1:] <= 0.0)[0] + 1
    maximize = (slopes[turning - 1] > 0.0) | (
        (slopes[turning - 1] == 0.0) & (slopes[turning] < 0.0)
    )
    ext_targets = np.where(maximize, 2.0, -2.0)
    near = np.abs(ds[turning] - ext_targets) <= 0.05
    turning, ext_targets = turning[near], ext_targets[near]
    if turning.size:
        e_ext, d_ext, (d_left, d_right) = _grid_extrema(
            v, es[turning - 1], es[turning + 1], np.sign(ext_targets)
        )
        for i, target, e, d, d_lo, d_hi in zip(
            turning.tolist(), ext_targets, e_ext, d_ext, d_left, d_right
        ):
            overshoot = (d - target) if target > 0.0 else (target - d)
            if abs(d - target) <= EDGE_TOL:
                touching.append(float(e))
            elif overshoot > 0.0 and not ({i - 1, i} & bracketed_cells):
                for lo, hi, g_lo, g_hi in (
                    (es[i - 1], e, d_lo - target, d - target),
                    (e, es[i + 1], d - target, d_hi - target),
                ):
                    if g_lo * g_hi < 0.0:
                        brackets.append((lo, hi, np.sign(g_lo), target))

    if brackets:
        lo, hi, s_lo, targets = np.array(brackets).T

        def g(e):
            d = discriminants(v, e.ravel())
            return d.reshape(e.shape) - targets[:, None]

        refined = ksection(g, lo, hi, s_lo, sweeps=_EDGE_SWEEPS)
        roots.extend((float(r), _EDGE_KIND[t]) for r, t in zip(refined, targets))

    roots.sort(key=lambda rk: rk[0])
    # collapse duplicates from adjacent brackets
    deduped: list[tuple[float, str]] = []
    for e, kind in roots:
        if deduped and abs(e - deduped[-1][0]) < 1e-8 and kind == deduped[-1][1]:
            continue
        deduped.append((e, kind))

    edges = tuple(e for e, _ in deduped)
    kinds = tuple(k for _, k in deduped)
    bands: list[tuple[float, float]] = []
    gaps: list[tuple[float, float]] = []
    for j in range(0, len(edges), 2):
        if j + 1 < len(edges):
            bands.append((edges[j], edges[j + 1]))
        else:
            bands.append((edges[j], float(e_max)))
    for j in range(1, len(edges) - 1, 2):
        gaps.append((edges[j], edges[j + 1]))
    return BandStructure(
        edges=edges,
        kinds=kinds,
        bands=tuple(bands),
        gaps=tuple(gaps),
        touching=tuple(sorted(touching)),
        window=(float(e_min), float(e_max)),
    )


def write_discriminant_csv(stream, v, energies):
    """Emit an E, D(E), class_tag sweep as CSV (12 significant digits)."""
    energies = np.asarray(energies, dtype=float)
    ds = discriminants(v, energies).tolist()
    rows = [(e, d, classify_discriminant(d).tag) for e, d in zip(energies.tolist(), ds)]
    stream.write("E,D,class_tag\n")
    stream.write(("%.12g,%.12g,%s\n" * len(rows)) % tuple(field for row in rows for field in row))
