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

from . import floquet
from .darboux import TransformResult, susy1
from .errors import (
    PeriodMismatchError,
    SingularTransformError,
)
from .potentials import Potential
from .seeds import bloch_seed

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
#: displacement_fit: coarse offsets per period, samples per period, golden-section steps
_FIT_OFFSETS = 1024
_FIT_SAMPLES = 2048
_FIT_ITERS = 60
#: bound on both invariance residuals (displacement and product variation)
_INVARIANCE_TOL = 1e-4
#: shooting: integrator rtol, and k-section sweeps after the first scan
_SHOOTING_RTOL = 1e-9
_SHOOTING_SWEEPS = 7


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


def _linf_mismatch(v, w_values, xs, delta):
    return float(np.max(np.abs(np.asarray(v(xs + delta), dtype=float) - w_values)))


def displacement_fit(v: Potential, w: Potential) -> tuple[float, float]:
    """delta in [0, T) minimizing the L-infinity distance |w(x) - v(x + delta)|.

    Coarse scan over _FIT_OFFSETS shifts, then golden-section refinement around
    the best one.  The max-norm (rather than L2) keeps localized defects
    visible instead of averaging them away.
    """
    period = _matched_period(v, w)
    xs = np.linspace(0.0, period, _FIT_SAMPLES, endpoint=False)
    w_values = np.asarray(w(xs), dtype=float)
    deltas = np.linspace(0.0, period, _FIT_OFFSETS, endpoint=False)
    # vectorized coarse scan: one big evaluation of v on the shifted grid
    grid = xs[None, :] + deltas[:, None]
    errs = np.max(np.abs(np.asarray(v(grid), dtype=float) - w_values[None, :]), axis=1)
    best = int(np.argmin(errs))
    step = period / _FIT_OFFSETS
    a = deltas[best] - step
    b = deltas[best] + step
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    f_c = _linf_mismatch(v, w_values, xs, c)
    f_d = _linf_mismatch(v, w_values, xs, d)
    for _ in range(_FIT_ITERS):
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _GOLDEN * (b - a)
            f_c = _linf_mismatch(v, w_values, xs, c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _GOLDEN * (b - a)
            f_d = _linf_mismatch(v, w_values, xs, d)
        if b - a < 1e-12:
            break
    delta = 0.5 * (a + b)
    residual = _linf_mismatch(v, w_values, xs, delta)
    return float(delta % period), residual


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

    Builds the Bloch pair at epsilon, transforms with the growing one, fits
    the displacement of the partner against the original, and evaluates the
    constancy of u^beta(x) u^{1/beta}(x + delta).  Both pairings of the
    branches are tried and the better product residual is reported.

    Below the first band edge the Bloch pair is nodeless and the test is the
    meaningful one.  At energies inside a finite gap the Bloch solutions
    carry nodes, the transform is singular, and the product necessarily
    touches zero, so the verdict there is not-invariant by construction.
    """
    grow, decay = bloch_seed(v, epsilon, **seed_kwargs)
    period = float(v.period)
    branch_g = grow.branches[0][1]
    branch_d = decay.branches[0][1]

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


def _decaying_initial(ms: np.ndarray, energies: np.ndarray, toward: str) -> np.ndarray:
    """Initial data, one row per energy, of the local Bloch solution that
    decays toward +/-inf, from the one-period matrices ms of shape (n, 2, 2)."""
    d = ms[:, 0, 0] + ms[:, 1, 1]
    inside = np.abs(d) <= 2.0
    if inside.any():
        raise ValueError(
            f"shooting energy {energies[inside.argmax()]:.6g} is not in a spectral "
            "gap of the far field"
        )
    grow = 0.5 * d + np.copysign(np.sqrt(0.25 * d * d - 1.0), d)
    beta = 1.0 / grow if toward == "plus" else grow
    r1 = np.stack((ms[:, 0, 1], beta - ms[:, 0, 0]), axis=1)
    r2 = np.stack((beta - ms[:, 1, 1], ms[:, 1, 0]), axis=1)
    vec = np.where((np.abs(r1).sum(axis=1) >= np.abs(r2).sum(axis=1))[:, None], r1, r2)
    return vec / np.max(np.abs(vec), axis=1, keepdims=True)


def shooting_eigenvalue(
    w: Potential,
    e_lo: float,
    e_hi: float,
    *,
    x_lo: float,
    x_hi: float,
) -> float | None:
    """Bound-state eigenvalue of -psi'' + w psi = E psi in [e_lo, e_hi].

    Shoots from both window ends with decaying Bloch boundary data taken
    from the outermost period of the window itself (the far field is
    periodic there, and each end may converge to a differently displaced
    copy), and brackets a sign change of the normalized Wronskian mismatch
    at x = 0, which every window contains.  Every step evaluates the
    mismatch for a whole batch of energies at once: a first sweep over
    floquet.SECTIONS + 1 points across [e_lo, e_hi] picks the first sign
    change, and _SHOOTING_SWEEPS k-section sweeps narrow it to 1e-10, or by
    at most 48 halvings.  Returns None when no sign change brackets an
    eigenvalue.
    """
    period = float(w.period)

    def matrices(e, x0, x1):
        return floquet.transfer_matrices(w, e, x0, x1, rtol=_SHOOTING_RTOL)

    def mismatch(es: np.ndarray) -> np.ndarray:
        e = es.ravel()
        y_l = _decaying_initial(matrices(e, x_lo, x_lo + period), e, "minus")
        y_r = _decaying_initial(matrices(e, x_hi - period, x_hi), e, "plus")
        left = np.einsum("nij,nj->ni", matrices(e, x_lo, 0.0), y_l)
        right = np.einsum("nij,nj->ni", matrices(e, x_hi, 0.0), y_r)
        wronskian = left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]
        scale = np.sqrt(np.sum(left**2, axis=1) * np.sum(right**2, axis=1))
        return (wronskian / scale).reshape(es.shape)

    es = np.linspace(float(e_lo), float(e_hi), floquet.SECTIONS + 1)
    signs = np.sign(mismatch(es))
    changes = np.nonzero(signs[:-1] != signs[1:])[0]
    if changes.size == 0:
        return None
    i = int(changes[0])
    found = floquet.ksection(
        mismatch, es[i : i + 1], es[i + 1 : i + 2], signs[i : i + 1],
        sweeps=_SHOOTING_SWEEPS, width=1e-10,
    )
    return float(found[0])
