"""Built-in demonstration scenarios.

Twelve named presets (fig1a ... fig3d) cover the transform gallery on the
Lame family at m = 1/2: first- and second-order transforms seeded at band
edges, at Bloch solutions below the spectrum or inside a gap, and at
general non-Bloch mixtures that create bound states inside the forbidden
regions.  The acceptance suite and the CLI both run them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import floquet
from .darboux import TransformResult, susy1, susy2
from .errors import SingularTransformError
from .numdiff import cell_max
from .potentials import DEFAULT_SAMPLES_PER_PERIOD, LamePotential, lame
from .seeds import (
    DEFAULT_PERIODS,
    SeedSolution,
    _growing_seed,
    bloch_branches,
    bloch_seed,
    general_seed,
    nodeless_mixing,
)

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS", "run_scenario", "band_structure_for"]

MODE_EDGE = "edge"
MODE_BLOCH = "bloch"
MODE_GENERAL = "general"


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    n: int
    m: float
    order: int
    mode: str
    energies: tuple[float, ...] = ()
    edge_indices: tuple[int, ...] = ()


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("fig1a", "first-order transform at the lowest band edge, n=1",
                 1, 0.5, 1, MODE_EDGE, edge_indices=(0,)),
        Scenario("fig1b", "first-order transform at the lowest band edge, n=2",
                 2, 0.5, 1, MODE_EDGE, edge_indices=(0,)),
        Scenario("fig1c", "first-order transform at the lowest band edge, n=3",
                 3, 0.5, 1, MODE_EDGE, edge_indices=(0,)),
        Scenario("fig1d", "second-order transform at the edges of the first gap, n=3",
                 3, 0.5, 2, MODE_EDGE, edge_indices=(1, 2)),
        Scenario("fig2a", "first-order transform, Bloch seed below the spectrum, n=1",
                 1, 0.5, 1, MODE_BLOCH, energies=(-1.0,)),
        Scenario("fig2b", "first-order transform, Bloch seed below the spectrum, n=2",
                 2, 0.5, 1, MODE_BLOCH, energies=(0.4,)),
        Scenario("fig2c", "second-order transform, Bloch seeds inside the first gap, n=2",
                 2, 0.5, 2, MODE_BLOCH, energies=(1.6, 2.9)),
        Scenario("fig2d", "second-order transform, Bloch seeds inside the first gap, n=3",
                 3, 0.5, 2, MODE_BLOCH, energies=(2.3, 5.0)),
        Scenario("fig3a", "first-order transform, non-Bloch seed below the spectrum, n=1",
                 1, 0.5, 1, MODE_GENERAL, energies=(0.0,)),
        Scenario("fig3b", "first-order transform, non-Bloch seed below the spectrum, n=2",
                 2, 0.5, 1, MODE_GENERAL, energies=(0.4,)),
        Scenario("fig3c", "second-order transform, non-Bloch seeds inside the first gap, n=1",
                 1, 0.5, 2, MODE_GENERAL, energies=(1.2, 1.3)),
        Scenario("fig3d", "second-order transform, non-Bloch seeds inside the first gap, n=2",
                 2, 0.5, 2, MODE_GENERAL, energies=(1.51, 2.51)),
    )
}


@dataclass(frozen=True)
class ScenarioRun:
    scenario: Scenario
    potential: LamePotential
    band_structure: floquet.BandStructure
    seeds: tuple[SeedSolution, ...]
    result: TransformResult


def band_structure_for(v: LamePotential) -> floquet.BandStructure:
    """Band structure of a Lame potential over its `band_window`, which holds
    all 2n+1 edges."""
    return floquet.band_edges(v, *v.band_window)


def _cell_ratios(w, spp):
    """(min |W| / max |W|, max |W|) on each period cell, along the last axis."""
    mag = np.abs(w)
    top = cell_max(mag, spp)
    with np.errstate(invalid="ignore"):
        return -cell_max(-mag, spp) / top, top


def _wronskian_score(w, spp):
    """min |W| / max |W| over the worst period cell, along the last axis;
    0 where W vanishes on a whole cell."""
    ratio, top = _cell_ratios(w, spp)
    return np.where((top == 0.0).any(axis=-1), 0.0, np.min(ratio, axis=-1))


def _first_best(scores):
    """Index of the best of the scores in order: a later one wins only by more
    than 1e-9 relative.  On an even potential mirror-image candidates tie up
    to rounding, and the first of them is kept."""
    values = np.asarray(scores).tolist()
    best = 0
    for i, score in enumerate(values):
        if score > values[best] * (1.0 + 1e-9):
            best = i
    return best


def _best_bloch_pair(v, e1, e2, **seed_kwargs):
    """Pick the (branch at e1, branch at e2) pairing with the safest Wronskian."""
    pair1 = bloch_seed(v, e1, **seed_kwargs)
    pair2 = bloch_seed(v, e2, **seed_kwargs)
    pairs = [(s1, s2) for s1 in pair1 for s2 in pair2]
    w = np.array([s1.u * s2.u_prime - s1.u_prime * s2.u for s1, s2 in pairs])
    return pairs[_first_best(_wronskian_score(w, pair1[0].samples_per_period))]


def _mixing_angles():
    """Candidate mixing angles with |c_minus / c_plus| in [1/4, 4], both signs,
    24 per sign.

    Balanced magnitudes keep the defect's crossover within roughly a period
    of the window center (the offset grows like ln|ratio| / (2 ln|beta|)),
    which the decay-rate fits of the kernel states need.
    """
    lo, hi = np.arctan(0.25), np.arctan(4.0)
    band = np.linspace(lo, hi, 24)
    return np.concatenate([band, np.pi - band[::-1]])


#: the mixing search bounds each score on every _BOUND_STEP-th sample
_BOUND_STEP = 32


def _best_mixing(basis, spp):
    """The mixings ((c+, c-) at e1, (c+, c-) at e2) over ``_mixing_angles``
    whose Wronskian, from the basis Wronskians basis[i][j] of branch i at e1
    and branch j at e2 (growing first) sampled at spp per period, scores best
    (``_wronskian_score``, ties by ``_first_best``), and that score.

    The Wronskian is bilinear in the branches, so the search is pure
    arithmetic.  Scored on every step-th sample, where step divides spp, a
    cell's min can only rise and its max only fall, so that score bounds the
    true one from above (a cell whose samples there all vanish bounds it by
    1).  ``_first_best`` is replayed in order, one row of second mixings at a
    time: the row's bounds take one pass on the thinned window, and only the
    candidates whose bound beats the best so far by its 1e-9 margin are
    scored on the whole window, since no other one could win its turn.
    """
    coeffs = [(np.cos(t), np.sin(t)) for t in _mixing_angles()]
    cos_sin = np.array(coeffs).T
    # products[p][q][i, j] = coeffs[i][p] * coeffs[j][q], the factor of basis[p][q]
    products = [[np.multiply.outer(a, b) for b in cos_sin] for a in cos_sin]

    def wronskians(at, basis):
        """W of the mixings products[...][at], sampled as basis."""
        return (
            products[0][0][at][..., None] * basis[0][0]
            + products[0][1][at][..., None] * basis[0][1]
            + products[1][0][at][..., None] * basis[1][0]
            + products[1][1][at][..., None] * basis[1][1]
        )

    step = math.gcd(spp, _BOUND_STEP)
    thin = [[b[::step] for b in row] for row in basis]
    best, best_score = None, -math.inf
    for i in range(len(coeffs)):
        ratio, top = _cell_ratios(wronskians(i, thin), spp // step)
        bound = np.min(np.where(top == 0.0, 1.0, ratio), axis=-1)
        rows = np.nonzero(bound > best_score * (1.0 + 1e-9))[0]
        scores = _wronskian_score(wronskians((i, rows), basis), spp)
        for j, score in zip(rows.tolist(), scores.tolist()):
            if best is None or score > best_score * (1.0 + 1e-9):
                best, best_score = (i, j), score
    i, j = best
    return (coeffs[i], coeffs[j]), best_score


def _best_general_pair(v, e1, e2, *, periods, samples_per_period):
    """Deterministic mixing search for a zero-free Wronskian with all four
    branch coefficients active (so both kernel states are normalizable).

    The four basis Wronskians are evaluated once on the seeds' window at a
    coarse sampling, and ``_best_mixing`` scans the angles.
    """
    spp_coarse = 256
    pairs = [bloch_branches(v, e, samples_per_period=spp_coarse)[:2] for e in (e1, e2)]
    window = [[b.window(periods) for b in pair] for pair in pairs]
    basis = [[u1 * up2 - up1 * u2 for u2, up2 in window[1]] for u1, up1 in window[0]]
    best, best_score = _best_mixing(basis, spp_coarse)
    if best_score <= 0.0:
        raise SingularTransformError(
            f"no zero-free Wronskian mixing found for energies {e1}, {e2}"
        )
    (cp1, cm1), (cp2, cm2) = best
    kwargs = dict(periods=periods, samples_per_period=samples_per_period)
    return general_seed(v, e1, cp1, cm1, **kwargs), general_seed(v, e2, cp2, cm2, **kwargs)


def run_scenario(
    name: str,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> ScenarioRun:
    """Execute a named scenario and return its seeds, transform, and context."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    sc = SCENARIOS[name]
    v = lame(sc.n, sc.m)
    bands = band_structure_for(v)
    kwargs = dict(periods=periods, samples_per_period=samples_per_period)

    if sc.mode == MODE_EDGE:
        energies = [bands.edges[i] for i in sc.edge_indices]
        chosen = [_growing_seed(v, e, **kwargs)[0] for e in energies]
    elif sc.mode == MODE_BLOCH:
        if sc.order == 1:
            chosen = [_growing_seed(v, sc.energies[0], **kwargs)[0]]
        else:
            chosen = list(_best_bloch_pair(v, *sc.energies, **kwargs))
    else:
        if sc.order == 1:
            eps = sc.energies[0]
            mix = nodeless_mixing(v, eps, periods=periods)
            chosen = [general_seed(v, eps, *mix, **kwargs)]
        else:
            chosen = list(_best_general_pair(v, *sc.energies, **kwargs))

    if sc.order == 1:
        result = susy1(v, chosen[0])
    else:
        result = susy2(v, chosen[0], chosen[1])
    return ScenarioRun(
        scenario=sc,
        potential=v,
        band_structure=bands,
        seeds=tuple(chosen),
        result=result,
    )
