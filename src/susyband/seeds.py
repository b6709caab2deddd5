"""Transformation functions: Bloch solutions at a factorization energy and
their general (non-Bloch) mixtures, with node bookkeeping and superpotentials.

A seed u solves -u'' + V u = eps u.  For eps below the first band edge or
inside a gap, |D(eps)| > 2 and two real quasi-periodic Bloch solutions
exist, u(x + T) = beta u(x) with Floquet multipliers beta and 1/beta.  Both
come from one cell pass over a single period, each built in its stable
direction (Ascher, Mattheij & Russell, Numerical Solution of Boundary Value
Problems for ODEs, 1995): the growing one forward from x = 0 through the
prefix products of the cells, the decaying one backward from x = T through
the products of their adjugates.  Each is extended over the working window
by the multiplier relation, which sidesteps the exponential blow-up a long
direct integration would accumulate.  General seeds are linear mixtures of
the two branches and inherit the same algebraic extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import floquet
from .errors import BandEnergyError, SingularSeedError, WindowOverflowError
from .numdiff import BOUNDARY_CELLS, CubicHermite, _itp, derivative, local_max, sign_changes
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

KIND_BLOCH_EDGE = "bloch_edge"
KIND_BLOCH_GAP = "bloch_gap"
KIND_GENERAL = "general"


@dataclass(frozen=True)
class BlochBranch:
    """One quasi-periodic solution, stored as samples on a single period.

    ``u``, ``u_prime`` and ``u_second`` hold u, u' and u'' = (V - eps) u at
    the n + 1 points k T / n, k = 0..n.  Anywhere else u(x) = beta^c u(x - cT)
    with c = floor(x/T); the multiplier may be negative (antiperiodic-type
    gaps), in which case the sign alternates per period.  ``tiled`` reads a
    grid of the samples' spacing over whole periods from the samples
    themselves; ``evaluate`` interpolates anywhere by cubic Hermite.
    """

    multiplier: float
    period: float
    u: np.ndarray
    u_prime: np.ndarray
    u_second: np.ndarray

    def _amplitude(self, cells):
        mag = np.abs(self.multiplier) ** cells
        if self.multiplier < 0.0:
            return np.where(cells % 2 == 0, mag, -mag)
        return mag

    def tiled(self, first: int, cells: int):
        """(u, u') at x = first T + j T/n, j = 0..cells n: the samples of each
        period c scaled by beta^c, and at the last point the first sample of
        the next period."""
        amp = self._amplitude(np.arange(first, first + cells + 1))
        return tuple(np.append((amp[:-1, None] * f[:-1]).ravel(), amp[-1] * f[0])
                     for f in (self.u, self.u_prime))

    def window(self, periods: int):
        """``tiled`` over ``window_grid(period, periods, n)``."""
        return self.tiled(-(periods // 2), periods)

    def evaluate(self, x):
        """(u, u') at arbitrary x, scalar or array: u by cubic Hermite on
        (u, u'), and u' on (u', u''), in the sample interval that holds x."""
        x = np.asarray(x, dtype=float)
        n = self.u.size - 1
        h = self.period / n
        cells = np.floor(x / self.period).astype(int)
        t = np.clip(x - cells * self.period, 0.0, self.period) / h
        amp = self._amplitude(cells)
        return (amp * CubicHermite(self.u, self.u_prime, h)(t),
                amp * CubicHermite(self.u_prime, self.u_second, h)(t))

    @property
    def growth_rate(self) -> float:
        """Per-unit-length log growth toward +infinity."""
        return math.log(abs(self.multiplier)) / self.period


def _mix(branches, sample):
    """(u, u') of the mixture sum(c * branch) over (c, branch) pairs, each
    branch read as sample(branch); branches with c == 0 are skipped."""
    u = 0.0
    up = 0.0
    for coeff, branch in branches:
        if coeff == 0.0:
            continue
        bu, bup = sample(branch)
        u = u + coeff * bu
        up = up + coeff * bup
    return u, up


@dataclass(frozen=True)
class SeedSolution:
    """A sampled transformation function over the working window, the grid
    ``window_grid(period, periods, samples_per_period)``, with the potential's
    values ``v_values`` on it."""

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
    v_values: np.ndarray

    def evaluate(self, x):
        """(u, u') at arbitrary x via the multiplier-extended branches."""
        return _mix(self.branches, lambda b: b.evaluate(x))

    @property
    def growth_exponents(self) -> tuple[float, float]:
        """Dominant per-unit log growth rates toward (+inf, -inf)."""
        rates = [b.growth_rate for c, b in self.branches if c != 0.0]
        return max(rates, default=-math.inf), max((-r for r in rates), default=-math.inf)

    @property
    def grows_both_ways(self) -> bool:
        plus, minus = self.growth_exponents
        return plus > 1e-12 and minus > 1e-12


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
) -> tuple[BlochBranch, BlochBranch, float]:
    """(growing branch, decaying branch, discriminant) at a gap energy.

    At a band edge the two branches coincide (multiplier +-1).  Raises
    BandEnergyError inside an allowed band, where the multipliers are a
    complex unit pair and no real Bloch solution exists.  Each branch is the
    Floquet eigenvector in the gauge u(0) = 1, or u'(0) = 1 where u(0)
    vanishes, carried through the one cell pass of the period in its stable
    direction: the growing branch (or the edge solution) forward by the
    prefix products b(x_k <- 0) of the cells, the decaying one backward from
    beta times it at T by b(x_k <- T), the prefix products of the reversed
    adjugates of the cells.  The backward samples are rescaled so that the
    gauge holds exactly.
    """
    period = v.period
    if period is None:
        raise ValueError("Bloch seeds need a periodic potential")
    n = samples_per_period
    e = np.array([float(epsilon)])
    cells = floquet._cells(v, e, 0.0, period, n, floquet.DEFAULT_RTOL)[:, 0]
    forward = floquet._prefix_products(cells)
    floquet_matrix = forward[-1]
    ec = floquet.classify_discriminant(float(floquet_matrix[0, 0] + floquet_matrix[1, 1]))
    d = ec.discriminant
    if ec.tag == floquet.TAG_ALLOWED_BAND:
        raise BandEnergyError(
            f"energy {epsilon:.6g} lies in an allowed band (D = {d:.6g}); "
            "Floquet multipliers are complex"
        )
    if ec.tag == floquet.TAG_GAP:
        grow = float(floquet.growing_multiplier(d))
        betas = np.array([grow, 1.0 / grow])
    else:  # a band edge: the one (anti)periodic solution
        betas = np.array(ec.multipliers[:1])
    vecs = floquet.bloch_vectors(np.broadcast_to(floquet_matrix, (betas.size, 2, 2)), betas)
    v_minus_e = np.asarray(v(np.linspace(0.0, period, n + 1)), dtype=float) - epsilon

    def build(beta: float, vec: np.ndarray, decaying: bool) -> BlochBranch:
        gauge = 0 if abs(vec[0]) > 1e-9 else 1
        init = vec / vec[0] if gauge == 0 else np.array([0.0, 1.0])
        if decaying:
            backward = floquet._prefix_products(floquet._adjugate(cells[::-1]))[::-1]
            samples = backward @ (beta * init)
            samples /= samples[0, gauge]
        else:
            samples = forward @ init  # (n+1, 2)
        return BlochBranch(
            multiplier=float(beta),
            period=float(period),
            u=samples[:, 0],
            u_prime=samples[:, 1],
            u_second=v_minus_e * samples[:, 0],
        )

    branches = [build(beta, vec, i == 1) for i, (beta, vec) in enumerate(zip(betas, vecs))]
    return branches[0], branches[-1], d


def _count_nodes(x, u, samples_per_period, evaluate):
    """Sign-change nodes, refined to 1e-12 by ITP on all sample intervals at
    once (``numdiff._itp``: one ``evaluate`` call on an array per round, about
    5 rounds), plus grazing near-zeros, as floats.

    The zero threshold is local (per period cell), since a seed can span
    fifteen orders of magnitude across the window.
    """
    local_scale = local_max(np.abs(u), samples_per_period)
    i = np.nonzero(sign_changes(u))[0]
    nodes = _itp(lambda t: evaluate(t)[0], x[i], x[i + 1], u[i], u[i + 1],
                 1e-12, 0.2 / float(x[-1] - x[0])).tolist()
    nodes.extend(x[:-1][u[:-1] == 0.0].tolist())
    grazing = x[(np.abs(u) < 1e-12 * local_scale) & (u != 0.0)]
    return sorted(nodes), tuple(grazing.tolist())


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
    for i in np.nonzero(sign_changes(u) | (u[:-1] == 0.0))[0]:
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


def _window_v(v, periods, samples_per_period):
    """V on ``window_grid(T, periods, samples_per_period)``, once for every
    seed assembled on that window."""
    return np.asarray(v(window_grid(float(v.period), periods, samples_per_period)), dtype=float)


def _assemble(
    v_x, epsilon, kind, multiplier, coefficients, branches,
    periods, samples_per_period,
):
    """The seed sum(c * branch) over the (c, branch) pairs on its window, on
    which V is v_x (``_window_v``)."""
    period = branches[0][1].period
    x = window_grid(period, periods, samples_per_period)
    with np.errstate(over="ignore", invalid="ignore"):
        u, up = _mix(branches, lambda b: b.window(periods))
    if not (np.isfinite(u).all() and np.isfinite(up).all()):
        beta = max((b.multiplier for c, b in branches if c != 0.0), key=abs)
        raise WindowOverflowError(periods, beta)

    def eval_u(t):
        return _mix(branches, lambda b: b.evaluate(t))

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
    residual = _riccati_residual(x, u, up, v_x, epsilon, samples_per_period)
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
        v_values=v_x,
    )


def _growing_seed(
    v, epsilon, *, periods=DEFAULT_PERIODS, samples_per_period=DEFAULT_SAMPLES_PER_PERIOD,
):
    """The growing Bloch seed at epsilon (the edge seed at a band edge), and
    the decaying branch, which is the growing one at a band edge."""
    grow, decay, _ = bloch_branches(v, epsilon, samples_per_period=samples_per_period)
    seed = _assemble(
        _window_v(v, periods, samples_per_period), epsilon,
        KIND_BLOCH_EDGE if grow is decay else KIND_BLOCH_GAP, grow.multiplier, None,
        [(1.0, grow)], periods, samples_per_period,
    )
    return seed, decay


def bloch_seed(
    v: Potential,
    epsilon: float,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> tuple[SeedSolution, SeedSolution]:
    """The pair of Bloch seeds (u^beta, u^{1/beta}) at a gap or sub-E0 energy.

    Ordered (growing, decaying) with |beta| > 1 first.  At a band edge the
    single (anti)periodic solution comes back twice, flagged as such.
    """
    grow, decay = _growing_seed(v, epsilon, periods=periods, samples_per_period=samples_per_period)
    if grow.kind == KIND_BLOCH_EDGE:
        return grow, grow
    return grow, _assemble(
        grow.v_values, epsilon, KIND_BLOCH_GAP, decay.multiplier, None,
        [(1.0, decay)], periods, samples_per_period,
    )


def general_seed(
    v: Potential,
    epsilon: float,
    c_plus: float,
    c_minus: float,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> SeedSolution:
    """u = c_plus u^beta + c_minus u^{1/beta} over the working window."""
    if c_plus == 0.0 and c_minus == 0.0:
        raise ValueError("mixing coefficients must not both vanish")
    grow, decay, d = bloch_branches(v, epsilon, samples_per_period=samples_per_period)
    if grow is decay:
        raise BandEnergyError(
            f"energy {epsilon:.6g} sits on a band edge; the Bloch pair is "
            "degenerate and no two-parameter mixture exists"
        )
    return _assemble(
        _window_v(v, periods, samples_per_period), epsilon, KIND_GENERAL, None,
        (float(c_plus), float(c_minus)),
        [(c_plus, grow), (c_minus, decay)], periods, samples_per_period,
    )


def _flip_indices(cos, sin, u_grow, u_decay):
    """Per window sample, the float sign sigma of the mixture cos[k] u_grow +
    sin[k] u_decay at small k, the first index f at which the sign differs
    from sigma (the angle count K if none does), and the sign at f.

    For theta in [0, pi) the exact mixture r cos(theta - phi) changes sign
    once, so on a grid of angles far coarser than rounding its float sign
    reads sigma below f, -sigma above f, and at f anything but sigma (0 at an
    exact zero).  f comes from a bisection over k that evaluates the same
    float expression as the full table at one angle per sample.  k = 0 reads
    u_grow itself (sin 0 = 0); where it is 0, sigma is the sign the mixture
    leaves behind, so f = 0.
    """
    k_max = cos.size - 1

    def sign(k):
        return np.sign(cos[k] * u_grow + sin[k] * u_decay)

    sigma = np.where(u_grow != 0.0, np.sign(u_grow), -np.sign(u_decay))
    lo = np.zeros(u_grow.shape, dtype=np.intp)
    hi = np.full(u_grow.shape, cos.size)
    for _ in range(cos.size.bit_length()):
        mid = (lo + hi) // 2
        same = sign(np.minimum(mid, k_max)) == sigma
        open_ = lo < hi
        lo = np.where(open_ & same, mid + 1, lo)
        hi = np.where(open_ & ~same, mid, hi)
    return sigma, lo, sign(np.minimum(lo, k_max))


def node_scan(
    v: Potential,
    epsilon: float,
    scan_resolution: int = 720,
    *,
    periods: int = DEFAULT_PERIODS,
):
    """Sweep the mixing ratio c_minus/c_plus and report window node counts.

    The ratio line (including infinity, the pure decaying branch) is
    parametrized by an angle theta in [0, pi): (c+, c-) = (cos t, sin t).
    Returns a list of (ratio, node_count); an even resolution lands exactly
    on the two Bloch endpoints.  A node is a sign change between samples of
    the window or, as in ``_count_nodes``, a sample that is exactly zero
    (the last one excepted).

    The counts are those of the full table of mixtures, found without it:
    each sample's float sign over the angles flips once, at the index
    ``_flip_indices`` finds, so a neighbour pair's sign change and a
    sample's zero are constant between at most four breakpoints (each flip
    index and the one after it).  The changes at the breakpoints go into a
    difference array over the angles, whose running sum is the count.
    """
    grow, decay, _ = bloch_branches(v, epsilon, samples_per_period=_SCAN_SAMPLES)
    if grow is decay:
        raise BandEnergyError("node scan is undefined at a band edge")
    with np.errstate(over="ignore", invalid="ignore"):
        u_grow, _ = grow.window(periods)
        u_decay, _ = decay.window(periods)
    if not (np.isfinite(u_grow).all() and np.isfinite(u_decay).all()):
        raise WindowOverflowError(periods, grow.multiplier)
    thetas = np.arange(scan_resolution) * (math.pi / scan_resolution)
    sigma, flip, at_flip = _flip_indices(np.cos(thetas), np.sin(thetas), u_grow, u_decay)

    def sign_at(k, side):
        """The float signs of the samples in slice ``side`` at angle index k,
        one index per sample."""
        f, sg = flip[side], sigma[side]
        return np.where(k < f, sg, np.where(k == f, at_flip[side], -sg))

    def nodes_at(k):
        """Per sample but the last, 1 where it and its right neighbour have
        opposite float signs at angle index k (one per sample), and 1 where it
        is exactly zero there."""
        a, b = sign_at(k, slice(None, -1)), sign_at(k, slice(1, None))
        return (a * b < 0.0).astype(int) + (a == 0.0)

    # each neighbour pair's breakpoints, sorted; its count is constant between
    lo, hi = np.minimum(flip[:-1], flip[1:]), np.maximum(flip[:-1], flip[1:])
    diff = np.zeros(scan_resolution + 2, dtype=int)
    prev = nodes_at(np.zeros_like(lo))
    diff[0] = prev.sum()
    for k in (lo, np.minimum(lo + 1, hi), np.maximum(lo + 1, hi), hi + 1):
        now = nodes_at(k)
        diff += np.bincount(k, weights=now - prev, minlength=diff.size).astype(int)
        prev = now
    counts = np.cumsum(diff)[:scan_resolution]
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
    nodeless = np.array([count == 0 for _, count in scan])
    if not nodeless.any():
        raise SingularSeedError(
            f"no nodeless mixing exists at epsilon = {epsilon:.6g}"
        )
    # runs of nodeless angles: where the zero-padded flags step up, and down
    steps = np.diff(np.concatenate(([0], nodeless.astype(int), [0])))
    starts, ends = np.nonzero(steps > 0)[0], np.nonzero(steps < 0)[0] - 1
    best = int(np.argmax(ends - starts))  # the first longest run
    mid = 0.5 * (int(starts[best]) + int(ends[best])) * math.pi / len(scan)
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
    """Emit the seed trace as CSV: x, u, u_prime, alpha (12 significant digits);
    a non-finite alpha = u'/u (a node, or an overflow) is an empty field."""
    from ._csvtext import write_table  # on the first write, as in darboux

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = seed.u_prime / seed.u
    write_table(stream, "x,u,u_prime,alpha", [seed.x, seed.u, seed.u_prime, alpha],
                blank=lambda block: ~np.isfinite(block) & [False, False, False, True])
