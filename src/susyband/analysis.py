"""Spectral verification of transformed potentials.

Same-band-structure comparison through the discriminant, displaced-copy
detection, the Darboux-invariance product criterion, bound states created
inside gaps, and an optional shooting-method cross check of those bound
states on the partner potential itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import floquet
from .darboux import TransformResult, susy1
from .errors import (
    PeriodMismatchError,
    SingularTransformError,
)
from .numdiff import itp_root
from .potentials import Potential
from .seeds import _growing_seed

__all__ = [
    "InvarianceReport",
    "BoundState",
    "compare_band_structure",
    "displacement_fit",
    "invariance_test",
    "bound_states_in_gaps",
    "shooting_eigenvalue",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: displacement_fit: samples per period, samples between coarse offsets, golden-section
#: steps and the steps one call scores ahead; samples between the points of an offset's
#: lower bound, offsets scored first; samples that join the active set at a time (from
#: each seeding offset, then from each confirmation that finds a larger sample outside it)
_FIT_SAMPLES = 2048
_FIT_STRIDE = 2
_FIT_ITERS = 60
_GOLDEN_DEPTH = 3
_BOUND_STRIDE = 32
_FIT_FIRST = 8
_FIT_ACTIVE = 8
#: bound on both invariance residuals (displacement and product variation); periods of
#: the seed window when the caller sets none: [-T, T], the shortest its gates are defined on
_INVARIANCE_TOL = 1e-4
_INVARIANCE_PERIODS = 2
#: shooting: integrator rtol, energies of the first scan, width of the final bracket;
#: the scan's rtol, and its margin: a scan energy of |mismatch| up to it or of far-field
#: |D| up to 2 plus it is evaluated again at _SHOOTING_RTOL
_SHOOTING_RTOL = 1e-9
_SHOOTING_SCAN = 65
_SHOOTING_WIDTH = 1e-10
_SCAN_RTOL = 1e-6
_SCAN_MARGIN = 1e-3


def _matched_period(v: Potential, w: Potential) -> float:
    if v.period is None or w.period is None:
        raise PeriodMismatchError("both potentials must be periodic")
    if abs(v.period - w.period) > 1e-9 * max(v.period, w.period):
        raise PeriodMismatchError(
            f"periods differ: {v.period!r} vs {w.period!r}"
        )
    return float(v.period)


def compare_band_structure(v: Potential, w: Potential, e_grid) -> float:
    """max over the energy grid of |D_v(E) - D_w(E)|.

    Equal discriminants mean equal band structure, so this single number
    certifies (to tolerance) that a transform preserved the spectrum.
    """
    _matched_period(v, w)
    e_grid = np.asarray(e_grid, dtype=float)
    dv = floquet.discriminants(v, e_grid)
    dw = floquet.discriminants(w, e_grid)
    return float(np.max(np.abs(dv - dw)))


def _finite_samples(potential, name, xs):
    values = np.asarray(potential(xs), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"displacement_fit: {name} is {float(values[k])!r} at "
                         f"x = {float(xs[k])!r}, not finite")
    return values


def _largest(errors):
    """Sorted indices of the _FIT_ACTIVE largest errors of each row, over all rows."""
    return np.unique(np.argpartition(errors, -_FIT_ACTIVE, axis=-1)[..., -_FIT_ACTIVE:])


def _best_offset(v_values, w_values):
    """First i minimizing max_j |v_values[(_FIT_STRIDE i + j) % N] - w_values[j]|
    (v(xs + xs[_FIT_STRIDE i]) up to rounding), and how many offsets it scored.
    The max over every _BOUND_STRIDE-th (32nd) sample bounds a score from below,
    as the max over any subset of the samples does; the _FIT_FIRST least bounds
    are scored, then each offset whose bound is at most the best score. These
    hold every offset of least score: np.argmin's i."""
    n = w_values.size
    rows = sliding_window_view(np.tile(v_values, 2), n)[:n:_FIT_STRIDE]
    bounds = np.max(np.abs(rows[:, ::_BOUND_STRIDE] - w_values[::_BOUND_STRIDE]), axis=1)
    first = np.argpartition(bounds, _FIT_FIRST)[:_FIT_FIRST]
    best = np.min(np.max(np.abs(rows[first] - w_values), axis=1))
    candidates = np.flatnonzero(bounds <= best)
    scores = np.max(np.abs(rows[candidates] - w_values), axis=1)
    return int(candidates[np.argmin(scores)]), first.size + candidates.size


def _golden_step(a, b, c, d, left):
    """The golden-section step that keeps [a, d] (left) or [c, b] of the
    bracket [a, b] with interior points c < d: the new (a, b, c, d)."""
    if left:
        b, d = d, c
        return a, b, b - _GOLDEN * (b - a), d
    a, c = c, d
    return a, b, c, a + _GOLDEN * (b - a)


def _golden_points(state, scores):
    """The first 2**_GOLDEN_DEPTH - 1 of: the unscored interior points of state,
    then the point each next step makes, breadth first over both branches."""
    points, level = [p for p in state[2:] if p not in scores], [state]
    while len(points) < 2**_GOLDEN_DEPTH - 1:
        level = [_golden_step(*s, left) for s in level for left in (True, False)]
        # the steps alternate left and right; a left step makes c, a right one d
        points += [s[2 + k % 2] for k, s in enumerate(level)]
    return points[: 2**_GOLDEN_DEPTH - 1]


def _golden_section(f, a, b):
    """Midpoint of [a, b] after golden-section steps: _FIT_ITERS of them, or
    fewer once the bracket is narrower than 1e-12.

    f scores an array of points.  A step that needs an unscored point calls
    f once on ``_golden_points``: at the start c, d and five of the six
    points the first two steps can make, after that the point the last step
    made and the six the next two can make.  So one call decides three
    steps, and the result is bit for bit that of one point per call.
    """
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    scores = {}
    for _ in range(_FIT_ITERS):
        if c not in scores or d not in scores:
            points = _golden_points((a, b, c, d), scores)
            scores.update(zip(points, f(np.array(points)).tolist()))
        a, b, c, d = _golden_step(a, b, c, d, scores[c] <= scores[d])
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


def displacement_fit(v: Potential, w: Potential) -> tuple[float, float]:
    """delta in [0, T) minimizing the L-infinity distance |w(x) - v(x + delta)|
    over _FIT_SAMPLES samples x of a period, and that distance.

    Coarse scan over every _FIT_STRIDE-th sample point (_best_offset), then
    golden-section refinement between the offsets on either side of the
    first best one.  The max-norm (rather than L2) keeps localized defects
    visible instead of averaging them away.

    The refinement scores a delta on an active set S of samples, where V is
    cheap: near the optimum a handful of samples hold the maximum.  S starts
    as the _FIT_ACTIVE largest residuals at the best offset and at both
    bracket ends, read off the scan's samples of v.  After each pass v is
    evaluated on every sample at its result.  If a sample outside S is
    larger than the max over S there, the _FIT_ACTIVE largest residuals
    join S and the pass runs again from the start.  Otherwise the full max
    at the result is the max over S, at most the least max over S and so at
    most the least full max: the result is the full refinement's minimizer,
    and that evaluation gives the residual.  Raises ValueError when v or w
    is not finite at a sample.
    """
    period = _matched_period(v, w)
    xs = np.linspace(0.0, period, _FIT_SAMPLES, endpoint=False)
    v_values = _finite_samples(v, "v", xs)
    w_values = _finite_samples(w, "w", xs)
    i = _best_offset(v_values, w_values)[0]
    # v(xs + xs[_FIT_STRIDE k]) up to rounding, at the bracket ends k = i -+ 1 and at i
    shifts = _FIT_STRIDE * np.arange(i - 1, i + 2)[:, None]
    rolled = (np.arange(_FIT_SAMPLES) + shifts) % _FIT_SAMPLES
    active = _largest(np.abs(v_values[rolled] - w_values))
    best = xs[_FIT_STRIDE * i]
    step = _FIT_STRIDE * period / _FIT_SAMPLES
    while True:
        xs_s, w_s = xs[active], w_values[active]

        def score(deltas):
            values = np.asarray(v((deltas[:, None] + xs_s).ravel()), dtype=float)
            return np.max(np.abs(values.reshape(deltas.size, -1) - w_s), axis=1)

        delta = _golden_section(score, best - step, best + step)
        errors = np.abs(np.asarray(v(xs + delta), dtype=float) - w_values)
        if not (errors > np.max(errors[active])).any():
            return float(delta % period), float(np.max(errors))
        active = np.union1d(active, _largest(errors))


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the displaced-copy (Darboux invariance) test."""

    epsilon: float
    delta: float
    residual_displacement: float
    residual_product: float
    invariant: bool

    @property
    def verdict(self) -> str:
        return "invariant" if self.invariant else "not_invariant"

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "residual_displacement": self.residual_displacement,
            "residual_product": self.residual_product,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _product_variation(grow, decay, delta, period, samples=2048):
    """Normalized variation of u_a(x) u_b(x + delta) over one period.

    Constancy of this product for some delta is the displaced-copy
    criterion; both orderings of the Bloch pair are tried by the caller
    since the criterion does not fix which branch carries the shift.
    """
    xs = np.linspace(0.0, period, samples, endpoint=False)
    ua, _ = grow.evaluate(xs)
    ub, _ = decay.evaluate(xs + delta)
    product = ua * ub
    scale = np.max(np.abs(product))
    if scale == 0.0:
        return math.inf
    return float((np.max(product) - np.min(product)) / scale)


def invariance_test(v: Potential, epsilon: float, **seed_kwargs) -> InvarianceReport:
    """Test whether the first-order transform at epsilon is a displaced copy.

    Builds the growing Bloch seed and the decaying branch at epsilon,
    transforms with the seed, fits the displacement of the partner against
    the original, and evaluates the constancy of u^beta(x) u^{1/beta}(x +
    delta).  Both pairings of the branches are tried and the better product
    residual is reported.

    Below the first band edge the Bloch pair is nodeless and the test is the
    meaningful one.  At energies inside a finite gap the Bloch solutions
    carry nodes, the transform is singular, and the product necessarily
    touches zero, so the verdict there is not-invariant by construction.

    Every field of the report is a one-period quantity: the partner is the
    one-period table of the seed's branch, the fit and the product run on one
    period, and a Bloch seed's nodes are counted on [0, T).  So the seed
    window is [-T, T] unless ``periods`` is given; the report does not
    depend on it.
    """
    grow, branch_d = _growing_seed(v, epsilon, **{"periods": _INVARIANCE_PERIODS, **seed_kwargs})
    period = float(v.period)
    branch_g = grow.branches[0][1]

    def product_residual(delta, samples=2048):
        return min(
            _product_variation(branch_g, branch_d, delta, period, samples),
            _product_variation(branch_d, branch_g, delta, period, samples),
        )

    try:
        result = susy1(v, grow)
        delta, residual_disp = displacement_fit(v, result.partner)
    except SingularTransformError:
        # in-gap Bloch seeds carry nodes; fall back to fitting delta on the
        # product itself so the criterion can still be evaluated
        residual_disp = math.inf
        deltas = np.linspace(0.0, period, 512, endpoint=False)
        scores = [product_residual(d, 512) for d in deltas]
        delta = float(deltas[int(np.argmin(scores))])

    residual_prod = product_residual(delta)
    invariant = residual_disp < _INVARIANCE_TOL and residual_prod < _INVARIANCE_TOL
    return InvarianceReport(
        epsilon=float(epsilon),
        delta=float(delta),
        residual_displacement=residual_disp,
        residual_product=residual_prod,
        invariant=bool(invariant),
    )


@dataclass(frozen=True)
class BoundState:
    """A normalizable partner state sitting inside a forbidden region."""

    epsilon: float
    gap_index: int  # 0 = below the first band edge, k = k-th open gap
    decay_rate: float
    expected_decay_rate: float

    @property
    def decay_rate_relative_error(self) -> float:
        return abs(self.decay_rate - self.expected_decay_rate) / self.expected_decay_rate


def bound_states_in_gaps(
    result: TransformResult, bands: floquet.BandStructure
) -> list[BoundState]:
    """Normalizable kernel states of a transform, located in the gaps of the
    original band structure, with their decay rates against the Floquet
    prediction log|beta_+|/T at the seed energy."""
    out = []
    for state in result.kernel:
        if not state.normalizable:
            continue
        gap = bands.gap_index(state.epsilon)
        if gap is None:
            continue
        out.append(
            BoundState(
                epsilon=state.epsilon,
                gap_index=gap,
                decay_rate=state.decay_rate if state.decay_rate is not None else math.nan,
                expected_decay_rate=state.expected_decay_rate,
            )
        )
    return out


def shooting_eigenvalue(
    w: Potential,
    e_lo: float,
    e_hi: float,
    *,
    x_lo: float,
    x_hi: float,
) -> float | None:
    """Bound-state eigenvalue of -psi'' + w psi = E psi in [e_lo, e_hi].

    Each evaluation integrates the window's n >= 2 whole periods from x_lo as
    one-period cells in one ``floquet.cell_matrices`` pass.  The first and
    last cells are the far field (each end may converge to a differently
    displaced copy) and give decaying Bloch data at the window ends.  The
    solutions meet at the middle cell boundary x_lo + (n // 2) T, x = 0 for a
    ``seeds.window_grid`` window (the level does not depend on it): the left
    cells carry the left data there, the adjugates of the right cells (their
    inverses, exact for 2x2 of det 1) the right data.  The mismatch is
    sin(theta) cos(theta) for the angle theta from the left (psi, psi') to
    the right one, blind to sign flips of floquet.bloch_vectors.  theta
    increases with E (psi'/psi falls with E for a solution decaying to the
    left and rises for one decaying to the right), so the mismatch rises
    through zero at a level and falls where the solutions are perpendicular.

    Two tolerances.  A scan of _SHOOTING_SCAN energies at the loose
    _SCAN_RTOL locates the level: it needs only signs, and the integrator's
    steps grow like rtol^(-1/5), so it takes about a quarter of the tight
    scan's.  A scan value within _SCAN_MARGIN of 0, or a far-field |D| below
    2 + _SCAN_MARGIN, is doubtful: those energies are evaluated again at
    _SHOOTING_RTOL, in one call, which also makes the far-field gap check
    (|D| <= 2 raises ValueError) for them.  While the loose error stays below the margin (at most 1.3e-5
    on the tested partners), every sign and gap verdict is the tight scan's.
    The first rising sign change is then narrowed to _SHOOTING_WIDTH by
    ``numdiff.itp_root``, one energy at a time at _SHOOTING_RTOL, with kappa1
    = 0.2 / (e_hi - e_lo), ITP's usual value for the whole interval (the
    mismatch is close to linear on a scan cell).  Returns None when there is
    no rising sign change.  A level whose state has not decayed inside the
    window's far-field periods is missed by design: the window must hold it.
    Raises ValueError for a bracket that is not finite with e_lo < e_hi.
    """
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ValueError(f"shooting bracket [{e_lo!r}, {e_hi!r}] must be finite with e_lo < e_hi")
    period = float(w.period)
    n = math.floor((x_hi - x_lo) / period + 1e-9)
    if n < 2:
        raise ValueError(f"shooting window [{x_lo:g}, {x_hi:g}] holds {max(n, 0)} whole "
                         f"periods of {period:g}; it needs at least two, one per far field")

    def mismatch(e: np.ndarray, rtol=_SHOOTING_RTOL, margin=0.0) -> np.ndarray:
        # a far-field |D| <= 2 + margin gives NaN, or without a margin a ValueError
        cells = floquet.cell_matrices(w, e, x_lo, x_lo + n * period, rtol=rtol)
        far = np.concatenate((cells[0], cells[-1]))
        d = far[:, 0, 0] + far[:, 1, 1]
        near = np.abs(d) <= 2.0 + margin
        if margin == 0.0 and near.any():
            raise ValueError(f"shooting energy {np.tile(e, 2)[near.argmax()]:.6g} is not "
                             "in a spectral gap of the far field")
        # the left data decay toward -inf (|beta| > 1), the right toward +inf
        grow = floquet.growing_multiplier(np.where(near, 2.0, d))
        beta = np.concatenate((grow[: e.size], 1.0 / grow[e.size :]))
        left, right = np.split(floquet.bloch_vectors(far, beta), 2)
        for b in cells[: n // 2]:
            left = np.einsum("nij,nj->ni", b, left)
        for b in floquet._adjugate(cells[n // 2 :][::-1]):
            right = np.einsum("nij,nj->ni", b, right)
        wronskian = left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]
        scale = np.sqrt(np.sum(left**2, axis=1) * np.sum(right**2, axis=1))
        values = wronskian / scale * (np.sum(left * right, axis=1) / scale)
        return np.where(near[: e.size] | near[e.size :], np.nan, values)

    es = np.linspace(float(e_lo), float(e_hi), _SHOOTING_SCAN)
    values = mismatch(es, _SCAN_RTOL, _SCAN_MARGIN)
    doubtful = ~(np.abs(values) > _SCAN_MARGIN)
    if doubtful.any():
        values[doubtful] = mismatch(es[doubtful])
    rising = np.nonzero(np.diff(np.sign(values)) > 0.0)[0]
    if rising.size == 0:
        return None
    i = int(rising[0])
    return float(itp_root(lambda e: float(mismatch(np.array([e]))[0]), es[i], es[i + 1],
                          values[i], values[i + 1], _SHOOTING_WIDTH, 0.2 / (e_hi - e_lo)))
