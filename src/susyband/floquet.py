"""Transfer-matrix machinery for -psi'' + V(x) psi = E psi on periodic potentials.

psi'' = (V - E) psi is integrated with the embedded Dormand-Prince 5(4) pair
in Runge-Kutta-Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, sec.
II.14): it forms only the psi stages, and in exact arithmetic takes the
steps and error estimates of the pair on (psi, psi').  The two canonical
columns (1,0) and (0,1) propagate together, so the result of one
pass is the full transfer matrix b(x1 <- x0); a whole batch of energies can
ride along in one adaptive integration since V(x) is shared between them,
which is what makes dense discriminant sweeps cheap.  One loop,
``_advance``, takes every step of one cell pass, ``_cells``: cells x
energies, each cell from the identity, all sharing the step and one call
of V per step on an array.  A sampled trace is the prefix product of its
cells, ``_prefix_products``: a Hillis-Steele scan of log2 n vectorized
rounds on the four matrix entries.  The same scan over the reversed
``_adjugate``s of the cells, their exact inverses (det 1), gives the
products back from the far end.  A span is the pairwise tree product of its
one-period cells, ``cell_matrices``, which cuts each into sub-cells.  The
tableau exists once, as the arrays _A, _B, _E and _C, and ``_dp5_step``
forms each stage as one weighted sum over a buffer of rows (psi, psi',
k0..k6), k_j = (V - E) psi at stage j, times V - E.

On top of the propagator sit the one-period (Floquet) matrix, its trace
D(E) (from half a period for an even potential), the |D| trichotomy
classifier, and the multipliers and Bloch eigenvectors read off the matrix.
The band edges come without the propagator, as the eigenvalues of the
periodic and antiperiodic Hill matrices built from the Fourier coefficients
of V (Hill's method).  That needs a smooth V; the discriminant serves any.
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
    "CSV_BLOCK_ROWS",
    "TransferMatrix",
    "EnergyClass",
    "BandStructure",
    "propagate",
    "transfer_matrix",
    "transfer_matrices",
    "cell_matrices",
    "discriminant",
    "discriminants",
    "classify",
    "classify_discriminant",
    "multipliers_from_discriminant",
    "growing_multiplier",
    "bloch_vectors",
    "band_edges",
    "write_discriminant_csv",
]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
#: |D| within this of 2 classifies an energy as a band edge
EDGE_TOL = 1e-7
CSV_BLOCK_ROWS = 2048  # rows per `%` call of write_discriminant_csv: one default period

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
# The pair in Nystrom form for psi'' = q psi: with k[j] = q psi at stage j,
# stage i is psi + C[i] h psi' + h^2 (A A)[i] . k, the step gives psi + h psi'
# + h^2 (B A) . k and psi' + h B . k, the error h^2 (E[:6] A + E[6] B) . k and
# h E . k.  Row r of W(h) = _W0 + h _W1 + h^2 _W2 weighs (psi, psi', k[0..6])
# for stage r + 1 (r < 5), the new psi and psi' (r = 5, 6) and their errors;
# (A A)[i] is zero from column i - 1 on, so stage i reads the rows before k[i - 1].
_W0, _W1, _W2 = np.zeros((3, 9, 9))
_W0[:6, 0] = _W0[6, 1] = 1.0
_W1[:5, 1], _W1[5, 1], _W1[6, 2:8], _W1[8, 2:] = _C[1:], 1.0, _B, _E
_W2[:5, 2:8], _W2[5, 2:8], _W2[7, 2:8] = (_A @ _A)[1:], _B @ _A, _E[:6] @ _A + _E[6] * _B

_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9
#: smallest step, relative to max(1, |x|) at the far end, before StiffIntegrationError
_H_FLOOR = 64.0 * np.finfo(float).eps
#: cell_matrices: sub-cells x energies up to _CELL_BATCH, 2 to _MAX_SUBCELLS per cell
_CELL_BATCH = 512
_MAX_SUBCELLS = 16


def _dp5_step(buf, q, h: float):
    """One DP5 step in Nystrom form over buf, shape (9, 2, n, nE): the rows
    psi, psi' and the slopes k[0..6] of psi', k[j] = q_j psi_j.

    buf[2] must hold k[0] at the start of the step, and q[i - 1] is V - E at
    x + C[i] h for the stages i = 1..5.  Fills buf[3:] and returns the new
    (psi, psi') and its error estimate, each shape (2, 2, n, nE).
    """
    w = _W0 + h * (_W1 + h * _W2)
    rows, shape = buf.reshape(9, -1), buf.shape[1:]
    for i in range(1, 6):
        np.multiply(q[i - 1], (w[i - 1, : 1 + i] @ rows[: 1 + i]).reshape(shape), out=buf[2 + i])
    y_new = (w[5:7, :8] @ rows[:8]).reshape(buf[:2].shape)
    np.multiply(q[4], y_new[0], out=buf[8])
    return y_new, (w[7:] @ rows).reshape(y_new.shape)


def _advance(v, e, x0, span: float, y, rtol: float):
    """Adaptive DP5(4) advance of the cells y, shape (2, 2, n, nE), over s from
    0 to span, either sign: cell j runs at x = x0[j] + s at the energies e,
    shape (nE,), and all share the step.

    Each step makes one call of `v` on the stage abscissae of all cells, its
    values broadcast as (n, 1) against e, and one ``_dp5_step`` on the buffer
    of rows (psi, psi', k0..k6), each of shape (2, n, nE): both columns of
    psi, of psi' and of the slopes k_j = (V - E) psi.  On a step underflow
    the cell with the largest last error ratio over its energies (NaN as
    inf) is blamed, once the cells before it ran on their own, so the error
    names the first failure in the order of x0.
    """
    if span == 0.0:
        return y
    direction = 1.0 if span > 0 else -1.0
    s = 0.0
    v_x = np.reshape(v(x0), (-1, 1))
    buf = np.empty((9,) + y.shape[1:])
    buf[:2] = y
    np.multiply(v_x - e, y[0], out=buf[2])
    y0, ratios, bound = y, np.zeros(y.shape), np.empty(y.shape)  # error-test buffers
    floor = _H_FLOOR * max(1.0, float(np.max(np.abs(x0))) + abs(span))

    # First trial step from the local oscillation scale.
    k_scale = math.sqrt(max(1.0, float(np.max(np.abs(v_x - e)))))
    h = direction * min(abs(span), 0.1 / k_scale)

    while (span - s) * direction > 0.0:
        if abs(h) > abs(span - s):
            h = span - s
        if abs(h) < floor:
            last = np.max(ratios.reshape(4, x0.size, -1), axis=(0, 2))
            j = int(np.argmax(np.where(np.isnan(last), np.inf, last)))
            if j:
                _advance(v, e, x0[:j], span, y0[:, :, :j], rtol)
            raise StiffIntegrationError("step size underflow in propagation", float(x0[j] + s))

        vs = np.asarray(v((x0 + s + _C[1:, None] * h).ravel()), dtype=float).reshape(5, -1, 1)
        y_new, err = _dp5_step(buf, vs - e, h)
        np.maximum(np.abs(y, out=bound), np.abs(y_new, out=ratios), out=bound)
        np.add(DEFAULT_ATOL, np.multiply(rtol, bound, out=bound), out=bound)
        err_norm = float(np.max(np.divide(np.abs(err, out=ratios), bound, out=ratios)))

        if err_norm <= 1.0:
            s += h
            y = buf[:2] = y_new
            buf[2] = buf[8]
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
    so (psi, psi')(x_k) = b_k @ (psi, psi')(x0) for any initial data.  The
    cells b(x_k <- x_{k-1}) come from one cell pass, and b_k is their
    ``_prefix_products``.  Without ``samples`` it is ``transfer_matrices`` at
    one energy.

    Returns (TransferMatrix, trace) where trace is None or an array of shape
    (n+1, 2, 2).
    """
    if not x1 > x0:
        raise ValueError("propagation interval must satisfy x0 < x1")
    if samples is None:
        y = transfer_matrices(v, [energy], x0, x1)[0]
        return TransferMatrix(y, x0, x1, float(energy)), None
    cells = _cells(v, np.array([float(energy)]), x0, x1, samples, DEFAULT_RTOL)[:, 0]
    trace = _prefix_products(cells)
    return TransferMatrix(trace[-1], x0, x1, float(energy)), trace


def transfer_matrix(v, energy, x0, x1) -> TransferMatrix:
    return propagate(v, energy, x0, x1)[0]


def _cells(v, e, x0, x1, n, rtol):
    """The n equal cells b(x0 + (j + 1) s <- x0 + j s), s = (x1 - x0) / n, at
    the energies e in one ``_advance`` pass, shape (n, nE, 2, 2)."""
    span = x1 - x0
    eye = np.eye(2)[:, :, None, None] * np.ones((n, e.size))
    y = _advance(v, e, x0 + np.arange(n) * span / n, span / n, eye, rtol)
    return np.moveaxis(y, (2, 3), (0, 1))


def cell_matrices(v, energies, x0, x1, *, rtol=DEFAULT_RTOL):
    """The n cells of the span x0 -> x1 (either direction) in one cell pass,
    shape (n, nE, 2, 2): cell j is b(x0 + (j + 1) s <- x0 + j s) for
    s = (x1 - x0) / n, n = ceil(|x1 - x0| / T) with a 1e-9 relative slack (8 T
    plus rounding is 8 cells), n = 1 if ``v.period`` is None.

    Each cell is cut into k equal sub-cells, k the largest power of two up
    to _MAX_SUBCELLS with k n nE <= _CELL_BATCH, but at least 2, and
    returned as their ``_tree_product``.  All n k sub-cells share each step,
    so a small batch takes about k times fewer."""
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1:
        raise ValueError("energies must be one-dimensional")
    n = 1 if v.period is None else max(1, math.ceil(abs(x1 - x0) / v.period * (1.0 - 1e-9)))
    if e.size == 0:
        return np.empty((n, 0, 2, 2))
    k = 2
    while k < _MAX_SUBCELLS and 2 * k * n * e.size <= _CELL_BATCH:
        k *= 2
    subcells = _cells(v, e, x0, x1, n * k, rtol).reshape(n, k, e.size, 2, 2)
    return _tree_product(subcells.swapaxes(0, 1))


def transfer_matrices(v, energies, x0, x1, *, rtol=DEFAULT_RTOL):
    """Transfer matrices b(x1 <- x0) for a batch of energies, shape (nE, 2, 2);
    with x1 < x0 the backward matrix, the inverse of b(x0 <- x1).  V is
    evaluated once per step for the whole batch, so a dense sweep costs
    barely more than one solve.  The result is the ``_tree_product`` of the
    ``cell_matrices``.
    """
    return _tree_product(cell_matrices(v, energies, x0, x1, rtol=rtol))


def _prefix_products(ms):
    """The products P_k = ms[k - 1] ... ms[0] of the matrices ms, shape (n, 2, 2),
    later ones on the left, for k = 0..n (P_0 the identity): shape (n + 1, 2, 2).

    A Hillis-Steele scan: round d multiplies every P_k by P_(k - d) on the
    right, for d = 1, 2, 4, ... < n + 1, each round one vectorized 2x2 product
    on the four entries.  The tree has depth log2 n, so P_k carries rounding of
    log2 n products, not of k.
    """
    a, b, c, d = (np.concatenate(([float(i == j)], ms[:, i, j])) for i in (0, 1) for j in (0, 1))
    step = 1
    while step < a.size:
        lo, hi = slice(None, -step), slice(step, None)
        a[hi], b[hi], c[hi], d[hi] = (a[hi] * a[lo] + b[hi] * c[lo], a[hi] * b[lo] + b[hi] * d[lo],
                                      c[hi] * a[lo] + d[hi] * c[lo], c[hi] * b[lo] + d[hi] * d[lo])
        step *= 2
    return np.stack((a, b, c, d), axis=-1).reshape(-1, 2, 2)


def _adjugate(ms):
    """adj [[p, q], [r, s]] = [[s, -q], [-r, p]] over the last two axes of ms:
    the exact inverse of a matrix of unit determinant."""
    out = np.empty_like(ms)
    out[..., 0, 0], out[..., 1, 1] = ms[..., 1, 1], ms[..., 0, 0]
    out[..., 0, 1], out[..., 1, 0] = -ms[..., 0, 1], -ms[..., 1, 0]
    return out


def _tree_product(ms):
    """The product of the matrices ms[0], ms[1], ... as a pairwise tree, later ones on the left."""
    while len(ms) > 1:
        pairs = len(ms) // 2
        ms = np.concatenate((ms[1 : 2 * pairs : 2] @ ms[: 2 * pairs : 2], ms[2 * pairs :]))
    return ms[0]


def _require_period(v: Potential) -> float:
    period = v.period
    if period is None:
        raise ValueError("potential has no period; Floquet analysis needs one")
    return float(period)


def discriminant(v, energy) -> float:
    """D(E) = Tr b(T <- 0), the trace of the one-period Floquet matrix."""
    return float(discriminants(v, [energy])[0])


def discriminants(v, energies):
    """Batched discriminant sweep over an array of energies.

    An even potential (``v.even``) is integrated over half a period only:
    with b(T/2 <- 0) = [[a, b], [c, d]], D = 2(ad + bc) (Magnus & Winkler,
    Hill's Equation, 1966, sec. 1.1).
    """
    period = _require_period(v)
    if v.even:
        ms = transfer_matrices(v, energies, 0.0, 0.5 * period)
        return 2.0 * (ms[:, 0, 0] * ms[:, 1, 1] + ms[:, 0, 1] * ms[:, 1, 0])
    ms = transfer_matrices(v, energies, 0.0, period)
    return ms[:, 0, 0] + ms[:, 1, 1]


TAG_ALLOWED_BAND = "allowed_band"
TAG_EDGE_PERIODIC = "band_edge_periodic"
TAG_EDGE_ANTIPERIODIC = "band_edge_antiperiodic"
TAG_GAP = "gap"


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


def _tags(d):
    """The |D| trichotomy, one tag per discriminant in d: a periodic or
    antiperiodic edge within EDGE_TOL of +2 or -2, else a band if |D| < 2,
    else (NaN too) a gap."""
    d = np.asarray(d, dtype=float)
    return np.select([np.abs(d - 2.0) <= EDGE_TOL, np.abs(d + 2.0) <= EDGE_TOL, np.abs(d) < 2.0],
                     [TAG_EDGE_PERIODIC, TAG_EDGE_ANTIPERIODIC, TAG_ALLOWED_BAND], TAG_GAP)


_EDGE_MULTIPLIERS = {TAG_EDGE_PERIODIC: (1.0, 1.0), TAG_EDGE_ANTIPERIODIC: (-1.0, -1.0)}


def classify_discriminant(d: float) -> EnergyClass:
    tag = _tags(d).item()
    return EnergyClass(tag, d, _EDGE_MULTIPLIERS.get(tag) or multipliers_from_discriminant(d))


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


#: Hill's method samples V at _HILL_SAMPLES points per period at first and
#: doubles them, up to _HILL_MAX_SAMPLES (a 2049 x 2049 matrix)
_HILL_SAMPLES = 64
_HILL_MAX_SAMPLES = 2**12


def _hill_eigenvalues(v, e_max):
    """The periodic and the antiperiodic eigenvalues of -psi'' + V psi = E psi,
    each ascending, by Hill's method (Deconinck & Kutz, J. Comput. Phys. 219
    (2006) 296): the eigenvalues of the Hermitian matrices
    H_jl = (mu + 2 pi j/T)^2 delta_jl + c_(j-l), |j|, |l| <= N/4, with mu = 0
    and mu = pi/T.

    The c_k are the Fourier coefficients of N samples of V over one period,
    from one FFT.  N doubles until the coefficients from |k| = N/4 on are
    below 1e-14 of the largest and the last mode's kinetic energy exceeds
    4(|e_max| + max |c_k|), so that the eigenvalues up to e_max are resolved.
    A ValueError names the test that still fails at _HILL_MAX_SAMPLES.
    """
    period = _require_period(v)
    n = _HILL_SAMPLES
    while True:
        c = np.fft.rfft(np.asarray(v(period * np.arange(n) / n), dtype=float)) / n
        largest = float(np.max(np.abs(c)))
        smooth = np.max(np.abs(c[n // 4:])) <= 1e-14 * largest
        if smooth and (math.pi * n / (2.0 * period)) ** 2 > 4.0 * (abs(e_max) + largest):
            break
        if n == _HILL_MAX_SAMPLES:
            cause = (
                f"e_max = {e_max:g} needs more Fourier modes" if smooth else
                "its Fourier series does not converge (a rough or singular potential)"
            )
            raise ValueError(
                f"band_edges cannot resolve V at {n} samples per period: {cause}; "
                "discriminants and classify still apply"
            )
        n *= 2
    j = np.arange(-(n // 4), n // 4 + 1)
    hill = np.concatenate((np.conj(c[:0:-1]), c))[j[:, None] - j[None, :] + n // 2]
    return [
        np.linalg.eigvalsh(hill + np.diag((mu + 2.0 * math.pi * j / period) ** 2))
        for mu in (0.0, math.pi / period)
    ]


def band_edges(v: Potential, e_min: float, e_max: float) -> BandStructure:
    """All band edges inside [e_min, e_max], and the touching points where a
    gap has closed.

    The edges are the periodic eigenvalues p_i and the antiperiodic ones a_i
    (``_hill_eigenvalues``), read by index through the oscillation theorem
    p0 < a0 <= a1 < p1 <= p2 < a2 <= a3 < ... (Magnus & Winkler, Hill's
    Equation, 1966, ch. 2): the gaps are the same-kind pairs (a0, a1),
    (p1, p2), (a2, a3), ...  Rounding can leave an edge a few ulps below the
    one before it in that order; it is raised to that one, so ``edges`` is
    nondecreasing.  A pair closer than 64 ulps of the largest eigenvalue is a
    closed gap, one touching point at its midpoint, and counts as no edge.

    Hill's method needs a V that accepts arrays and is smooth, its Fourier
    series converging fast.  A rough potential (a spline through a
    square-wave table) or a singular one raises a ValueError;
    ``discriminants`` and ``classify`` still serve it.
    """
    if not e_max > e_min:
        raise ValueError("need e_min < e_max")
    p, a = _hill_eigenvalues(v, e_max)
    # edge i is eigenvalue i // 2 of the kind of gap (i + 1) // 2: p for even gaps
    i = np.arange(2 * p.size - 1)
    is_periodic = (i + 1) // 2 % 2 == 0
    seq = np.maximum.accumulate(np.where(is_periodic, p[i // 2], a[i // 2]))
    closed = seq[2::2] - seq[1::2] < 64.0 * np.spacing(max(p[-1], a[-1]))
    keep = np.ones(seq.size, dtype=bool)
    keep[1::2] = keep[2::2] = ~closed
    keep &= (seq >= e_min) & (seq <= e_max)
    touching = 0.5 * (seq[1::2] + seq[2::2])[closed]

    edges = tuple(seq[keep].tolist())
    return BandStructure(
        edges=edges,
        kinds=tuple(np.where(is_periodic, TAG_EDGE_PERIODIC, TAG_EDGE_ANTIPERIODIC)[keep].tolist()),
        bands=tuple(zip(edges[::2], edges[1::2] + (float(e_max),))),
        gaps=tuple(zip(edges[1::2], edges[2::2])),
        touching=tuple(touching[(touching >= e_min) & (touching <= e_max)].tolist()),
        window=(float(e_min), float(e_max)),
    )


def write_discriminant_csv(stream, v, energies):
    """Emit an E, D(E), class_tag sweep as CSV (12 significant digits)."""
    energies = np.asarray(energies, dtype=float)
    ds = discriminants(v, energies)
    stream.write("E,D,class_tag\n")
    for lo in range(0, ds.size, CSV_BLOCK_ROWS):
        e, d = energies[lo : lo + CSV_BLOCK_ROWS], ds[lo : lo + CSV_BLOCK_ROWS]
        rows = zip(e.tolist(), d.tolist(), _tags(d).tolist())
        stream.write(("%.12g,%.12g,%s\n" * d.size) % tuple(field for row in rows for field in row))
