"""Transformation functions: Bloch solutions at a factorization energy and
their general (non-Bloch) mixtures, with node bookkeeping and superpotentials.

A seed u solves -u'' + V u = eps u.  For eps below the first band edge or
inside a gap, |D(eps)| > 2 and two real quasi-periodic Bloch solutions
exist, u(x + T) = beta u(x) with Floquet multipliers beta and 1/beta.  Each
one is integrated over a single period from the matching eigenvector of the
Floquet matrix and extended over the working window by the multiplier
relation, which sidesteps the exponential blow-up a long direct integration
would accumulate.  General seeds are linear mixtures of the two branches
and inherit the same algebraic extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import floquet
from .errors import BandEnergyError, SingularSeedError, WindowOverflowError
from .numdiff import BOUNDARY_CELLS, derivative, local_max
from .potentials import DEFAULT_SAMPLES_PER_PERIOD, Potential

__all__ = [
    "DEFAULT_PERIODS",
    "RICCATI_GATE",
    "SeedSolution",
    "SuperpotentialTrace",
    "bloch_seed",
    "general_seed",
    "node_scan",
    "nodeless_mixing",
    "superpotential",
    "window_grid",
    "write_seed_csv",
]

#: default working window, in periods, centered on x = 0
DEFAULT_PERIODS = 16
#: maximum admissible Riccati residual for an accepted seed
RICCATI_GATE = 1e-6
#: samples per period of the window on which node_scan counts sign changes
_SCAN_SAMPLES = 256
#: mixing angles per block of node_scan, which bounds the table held at once
_SCAN_BLOCK = 64

KIND_BLOCH_EDGE = "bloch_edge"
KIND_BLOCH_GAP = "bloch_gap"
KIND_GENERAL = "general"


@dataclass(frozen=True)
class BlochBranch:
    """One quasi-periodic solution, stored on a single period.

    Evaluation anywhere uses u(x) = beta^n u(x - nT) with n = floor(x/T);
    the multiplier may be negative (antiperiodic-type gaps), in which case
    the sign alternates per period.
    """

    multiplier: float
    period: float
    u_spline: CubicSpline
    up_spline: CubicSpline

    def _amplitude(self, cells):
        mag = np.abs(self.multiplier) ** cells
        if self.multiplier < 0.0:
            return np.where(cells % 2 == 0, mag, -mag)
        return mag

    def evaluate(self, x):
        """(u, u') at arbitrary x, scalar or array."""
        x = np.asarray(x, dtype=float)
        cells = np.floor(x / self.period).astype(int)
        frac = np.clip(x - cells * self.period, 0.0, self.period)
        amp = self._amplitude(cells)
        return amp * self.u_spline(frac), amp * self.up_spline(frac)

    @property
    def growth_rate(self) -> float:
        """Per-unit-length log growth toward +infinity."""
        return math.log(abs(self.multiplier)) / self.period


def _mix(branches, x):
    """(u, u') at x of the mixture sum(c * branch) over (c, branch) pairs;
    branches with c == 0 are skipped."""
    u = 0.0
    up = 0.0
    for coeff, branch in branches:
        if coeff == 0.0:
            continue
        bu, bup = branch.evaluate(x)
        u = u + coeff * bu
        up = up + coeff * bup
    return u, up


@dataclass(frozen=True)
class SeedSolution:
    """A sampled transformation function over the working window, the grid
    ``window_grid(period, periods, samples_per_period)``."""

    epsilon: float
    kind: str
    multiplier: float | None
    coefficients: tuple[float, float] | None
    period: float
    samples_per_period: int
    window: tuple[float, float]
    x: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    node_count: int
    nodes: tuple[float, ...]
    grazing: tuple[float, ...]
    riccati_residual: float
    branches: tuple[tuple[float, BlochBranch], ...]

    def evaluate(self, x):
        """(u, u') at arbitrary x via the multiplier-extended branches."""
        return _mix(self.branches, x)

    @property
    def growth_exponents(self) -> tuple[float, float]:
        """Dominant per-unit log growth rates toward (+inf, -inf)."""
        rates = [b.growth_rate for c, b in self.branches if c != 0.0]
        return max(rates, default=-math.inf), max((-r for r in rates), default=-math.inf)

    @property
    def grows_both_ways(self) -> bool:
        plus, minus = self.growth_exponents
        return plus > 1e-12 and minus > 1e-12


def _eigenvector(b: np.ndarray, beta: float) -> np.ndarray:
    """Eigenvector of the Floquet matrix for multiplier beta, gauge-fixed.

    Normalized to u(0) = 1 when u(0) != 0, else u'(0) = 1; stable at band
    edges (Jordan block) because it never eigen-decomposes, it reads the
    defect row directly.
    """
    r1 = np.array([b[0, 1], beta - b[0, 0]])
    r2 = np.array([beta - b[1, 1], b[1, 0]])
    vec = r1 if np.abs(r1).sum() >= np.abs(r2).sum() else r2
    norm = np.abs(vec).max()
    if norm == 0.0:  # identity Floquet matrix: any vector works
        return np.array([1.0, 0.0])
    vec = vec / norm
    if abs(vec[0]) > 1e-9:
        return vec / vec[0]
    return np.array([0.0, 1.0])


def window_grid(period: float, periods: int, samples_per_period: int) -> np.ndarray:
    """The working window: periods // 2 periods left of x = 0 and the rest to
    the right, samples_per_period uniform cells per period, both ends included.

    Every seed is sampled on it, and the scenario mixing search scores its
    candidates on it.
    """
    lo = -(periods // 2) * period
    return np.linspace(lo, lo + periods * period, periods * samples_per_period + 1)


def bloch_branches(
    v: Potential,
    epsilon: float,
    *,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    rtol: float = floquet.DEFAULT_RTOL,
) -> tuple[BlochBranch, BlochBranch, float]:
    """(growing branch, decaying branch, discriminant) at a gap energy.

    At a band edge the two branches coincide (multiplier +-1).  Raises
    BandEnergyError inside an allowed band, where the multipliers are a
    complex unit pair and no real Bloch solution exists.
    """
    period = v.period
    if period is None:
        raise ValueError("Bloch seeds need a periodic potential")
    tm, trace = floquet.propagate(v, epsilon, 0.0, period, samples=samples_per_period, rtol=rtol)
    d = tm.trace
    xs = np.linspace(0.0, period, samples_per_period + 1)

    def build(beta: float) -> BlochBranch:
        init = _eigenvector(tm.matrix, beta)
        samples = trace @ init  # (n+1, 2)
        return BlochBranch(
            multiplier=float(beta),
            period=float(period),
            u_spline=CubicSpline(xs, samples[:, 0]),
            up_spline=CubicSpline(xs, samples[:, 1]),
        )

    if abs(abs(d) - 2.0) <= floquet.EDGE_TOL:
        beta = 1.0 if d > 0 else -1.0
        branch = build(beta)
        return branch, branch, d
    if abs(d) < 2.0:
        raise BandEnergyError(
            f"energy {epsilon:.6g} lies in an allowed band (D = {d:.6g}); "
            "Floquet multipliers are complex"
        )
    root = math.sqrt(0.25 * d * d - 1.0)
    grow = 0.5 * d + math.copysign(root, d)  # |beta| > 1
    decay = 1.0 / grow
    return build(grow), build(decay), d


def _count_nodes(x, u, samples_per_period, evaluate):
    """Sign-change nodes refined by bisection, plus grazing near-zeros.

    The zero threshold is local (per period cell), since a seed can span
    fifteen orders of magnitude across the window.
    """
    local_scale = local_max(np.abs(u), samples_per_period)
    nodes = []
    for i in np.nonzero(np.sign(u[:-1]) * np.sign(u[1:]) < 0.0)[0]:
        nodes.append(brentq(lambda t: evaluate(t)[0], x[i], x[i + 1], xtol=1e-12))
    exact = np.nonzero(u[:-1] == 0.0)[0]
    nodes.extend(float(x[i]) for i in exact)
    grazing = []
    near = np.abs(u) < 1e-12 * local_scale
    near[np.nonzero(u == 0.0)] = False
    for i in np.nonzero(near)[0]:
        grazing.append(float(x[i]))
    return sorted(nodes), tuple(grazing)


def _riccati_residual(x, u, up, v_values, epsilon, samples_per_period):
    """max |alpha' + alpha^2 - (V - eps)| where the seed is safely nonzero.

    alpha' comes from finite differences of alpha = u'/u, so the residual is
    a genuine integration-quality diagnostic rather than an identity.  Near
    a node alpha has a pole the stencil cannot resolve, so a margin of a
    sixteenth of a period around every sign change is masked, along with a
    per-period amplitude floor.
    """
    h = x[1] - x[0]
    local_scale = local_max(np.abs(u), samples_per_period)
    safe = np.abs(u) > 1e-3 * local_scale
    margin = max(BOUNDARY_CELLS + 1, samples_per_period // 16)
    for i in np.nonzero((np.sign(u[:-1]) * np.sign(u[1:]) < 0.0) | (u[:-1] == 0.0))[0]:
        safe[max(0, i - margin) : i + margin + 2] = False
    # a node just past the window edge would contaminate FD near the ends
    safe[:margin] = False
    safe[-margin:] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(u != 0.0, up / np.where(u == 0.0, 1.0, u), 0.0)
    alpha_prime = derivative(alpha, h)
    residual = np.abs(alpha_prime + alpha * alpha - (v_values - epsilon))
    # stencil must not straddle a masked point or the window boundary
    valid = safe.copy()
    for shift in range(1, BOUNDARY_CELLS + 1):
        valid[shift:] &= safe[:-shift]
        valid[:-shift] &= safe[shift:]
    valid[:BOUNDARY_CELLS] = False
    valid[-BOUNDARY_CELLS:] = False
    if not np.any(valid):
        return math.inf
    return float(np.max(residual[valid]))


def _assemble(
    v, epsilon, kind, multiplier, coefficients, branches,
    periods, samples_per_period,
):
    period = float(v.period)
    x = window_grid(period, periods, samples_per_period)
    with np.errstate(over="ignore", invalid="ignore"):
        u, up = _mix(branches, x)
    if not (np.isfinite(u).all() and np.isfinite(up).all()):
        beta = max((b.multiplier for c, b in branches if c != 0.0), key=abs)
        raise WindowOverflowError(periods, beta)
    eval_u = partial(_mix, branches)

    if kind == KIND_GENERAL:
        nodes, grazing = _count_nodes(x, u, samples_per_period, eval_u)
        node_count = len(nodes)
    else:
        # Bloch seeds: count per period on the base cell [0, T)
        i0 = np.searchsorted(x, -0.5 * (x[1] - x[0]))
        seg_x = x[i0 : i0 + samples_per_period + 1]
        seg_u = u[i0 : i0 + samples_per_period + 1]
        nodes, grazing = _count_nodes(seg_x, seg_u, samples_per_period, eval_u)
        # a node at the right boundary is the wrap image of one at the left
        wrap_tol = 1e-6 * period
        if nodes and nodes[0] < seg_x[0] + wrap_tol:
            nodes = [t for t in nodes if t < seg_x[0] + period - wrap_tol]
        else:
            nodes = [t for t in nodes if t < seg_x[0] + period - 1e-12]
        node_count = len(nodes)
    residual = _riccati_residual(x, u, up, v(x), epsilon, samples_per_period)
    return SeedSolution(
        epsilon=float(epsilon),
        kind=kind,
        multiplier=multiplier,
        coefficients=coefficients,
        period=period,
        samples_per_period=samples_per_period,
        window=(float(x[0]), float(x[-1])),
        x=x,
        u=u,
        u_prime=up,
        node_count=node_count,
        nodes=tuple(nodes),
        grazing=grazing,
        riccati_residual=residual,
        branches=tuple((float(c), b) for c, b in branches),
    )


def bloch_seed(
    v: Potential,
    epsilon: float,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    rtol: float = floquet.DEFAULT_RTOL,
) -> tuple[SeedSolution, SeedSolution]:
    """The pair of Bloch seeds (u^beta, u^{1/beta}) at a gap or sub-E0 energy.

    Ordered (growing, decaying) with |beta| > 1 first.  At a band edge the
    single (anti)periodic solution comes back twice, flagged as such.
    """
    grow, decay, d = bloch_branches(v, epsilon, samples_per_period=samples_per_period, rtol=rtol)

    def assemble(branch, kind):
        return _assemble(
            v, epsilon, kind, branch.multiplier, None,
            [(1.0, branch)], periods, samples_per_period,
        )

    if grow is decay:
        seed = assemble(grow, KIND_BLOCH_EDGE)
        return seed, seed
    return assemble(grow, KIND_BLOCH_GAP), assemble(decay, KIND_BLOCH_GAP)


def general_seed(
    v: Potential,
    epsilon: float,
    c_plus: float,
    c_minus: float,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    rtol: float = floquet.DEFAULT_RTOL,
) -> SeedSolution:
    """u = c_plus u^beta + c_minus u^{1/beta} over the working window."""
    if c_plus == 0.0 and c_minus == 0.0:
        raise ValueError("mixing coefficients must not both vanish")
    grow, decay, d = bloch_branches(v, epsilon, samples_per_period=samples_per_period, rtol=rtol)
    if grow is decay:
        raise BandEnergyError(
            f"energy {epsilon:.6g} sits on a band edge; the Bloch pair is "
            "degenerate and no two-parameter mixture exists"
        )
    return _assemble(
        v, epsilon, KIND_GENERAL, None, (float(c_plus), float(c_minus)),
        [(c_plus, grow), (c_minus, decay)], periods, samples_per_period,
    )


def node_scan(
    v: Potential,
    epsilon: float,
    scan_resolution: int = 720,
    *,
    periods: int = DEFAULT_PERIODS,
    rtol: float = floquet.DEFAULT_RTOL,
):
    """Sweep the mixing ratio c_minus/c_plus and report window node counts.

    The ratio line (including infinity, the pure decaying branch) is
    parametrized by an angle theta in [0, pi): (c+, c-) = (cos t, sin t).
    Returns a list of (ratio, node_count); an even resolution lands exactly
    on the two Bloch endpoints.
    """
    grow, decay, _ = bloch_branches(v, epsilon, samples_per_period=_SCAN_SAMPLES, rtol=rtol)
    if grow is decay:
        raise BandEnergyError("node scan is undefined at a band edge")
    x = window_grid(float(v.period), periods, _SCAN_SAMPLES)
    u_grow, _ = grow.evaluate(x)
    u_decay, _ = decay.evaluate(x)
    thetas = np.arange(scan_resolution) * (math.pi / scan_resolution)
    counts = []
    for block in np.split(thetas, np.arange(_SCAN_BLOCK, scan_resolution, _SCAN_BLOCK)):
        signs = np.sign(np.cos(block)[:, None] * u_grow + np.sin(block)[:, None] * u_decay)
        counts.extend((signs[:, :-1] * signs[:, 1:] < 0.0).sum(axis=1))
    out = []
    for theta, count in zip(thetas, counts):
        ratio = math.inf if abs(theta - 0.5 * math.pi) < 1e-12 else math.tan(theta)
        out.append((ratio, int(count)))
    return out


def nodeless_mixing(
    v: Potential,
    epsilon: float,
    scan_resolution: int = 720,
    **kwargs,
) -> tuple[float, float]:
    """Midpoint of the widest nodeless mixing interval, as (c_plus, c_minus).

    The midpoint maximizes the margin from the singular endpoints of the
    nodeless region.  Raises if no mixing is nodeless (e.g. in-gap energies
    whose Bloch solutions carry nodes).
    """
    scan = node_scan(v, epsilon, scan_resolution, **kwargs)
    zero = [i for i, (_, count) in enumerate(scan) if count == 0]
    if not zero:
        raise SingularSeedError(
            f"no nodeless mixing exists at epsilon = {epsilon:.6g}"
        )
    runs = []
    start = zero[0]
    prev = zero[0]
    for i in zero[1:]:
        if i != prev + 1:
            runs.append((start, prev))
            start = i
        prev = i
    runs.append((start, prev))
    best = max(runs, key=lambda r: r[1] - r[0])
    mid = 0.5 * (best[0] + best[1]) * math.pi / len(scan)
    return math.cos(mid), math.sin(mid)


@dataclass(frozen=True)
class SuperpotentialTrace:
    """alpha = u'/u on the seed grid, with its Riccati residual diagnostic."""

    epsilon: float
    x: np.ndarray
    alpha: np.ndarray
    riccati_residual: float


def superpotential(seed: SeedSolution) -> SuperpotentialTrace:
    """Logarithmic derivative of a nodeless seed.

    Raises SingularSeedError (listing the node locations) when the seed
    vanishes inside the window, since alpha would blow up there.
    """
    if seed.nodes:
        raise SingularSeedError(
            f"superpotential is singular at epsilon = {seed.epsilon:.6g}",
            seed.nodes,
        )
    alpha = seed.u_prime / seed.u
    return SuperpotentialTrace(
        epsilon=seed.epsilon,
        x=seed.x,
        alpha=alpha,
        riccati_residual=seed.riccati_residual,
    )


def write_seed_csv(stream, seed: SeedSolution):
    """Emit the seed trace as CSV: x, u, u_prime, alpha (12 significant digits)."""
    stream.write("x,u,u_prime,alpha\n")
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = seed.u_prime / seed.u
    for x, u, up, a in zip(seed.x, seed.u, seed.u_prime, alpha):
        a_txt = f"{a:.12g}" if np.isfinite(a) else ""
        stream.write(f"{x:.12g},{u:.12g},{up:.12g},{a_txt}\n")
