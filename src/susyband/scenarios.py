"""Built-in demonstration scenarios.

Twelve named presets (fig1a ... fig3d) cover the transform gallery on the
Lame family at m = 1/2: first- and second-order transforms seeded at band
edges, at Bloch solutions below the spectrum or inside a gap, and at
general non-Bloch mixtures that create bound states inside the forbidden
regions.  The acceptance suite and the CLI both run them by name.
"""

from __future__ import annotations

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
    bloch_branches,
    bloch_seed,
    general_seed,
    nodeless_mixing,
    window_grid,
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


_BAND_CACHE: dict[tuple, floquet.BandStructure] = {}


def band_structure_for(v: LamePotential, *, rtol=floquet.DEFAULT_RTOL) -> floquet.BandStructure:
    """Band structure of a Lame potential over its `band_window`, which holds
    all 2n+1 edges."""
    key = (v.n, v.m, rtol)
    if key not in _BAND_CACHE:
        _BAND_CACHE[key] = floquet.band_edges(v, *v.band_window, rtol=rtol)
    return _BAND_CACHE[key]


def _wronskian_score(w, spp):
    """min |W| / max |W| over the worst period cell, along the last axis;
    0 where W vanishes on a whole cell."""
    mag = np.abs(w)
    top = cell_max(mag, spp)
    with np.errstate(invalid="ignore"):
        score = np.min(-cell_max(-mag, spp) / top, axis=-1)
    return np.where((top == 0.0).any(axis=-1), 0.0, score)


def _best_bloch_pair(v, e1, e2, **seed_kwargs):
    """Pick the (branch at e1, branch at e2) pairing with the safest Wronskian."""
    pair1 = bloch_seed(v, e1, **seed_kwargs)
    pair2 = bloch_seed(v, e2, **seed_kwargs)
    best = None
    best_score = -1.0
    for s1 in pair1:
        for s2 in pair2:
            w = s1.u * s2.u_prime - s1.u_prime * s2.u
            score = float(_wronskian_score(w, s1.samples_per_period))
            # on an even potential the two cross pairings are mirror images
            # and tie up to rounding: a later pair must win by more than that
            if score > best_score * (1.0 + 1e-9):
                best_score = score
                best = (s1, s2)
    return best


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


def _best_general_pair(v, e1, e2, *, periods, samples_per_period, rtol):
    """Deterministic mixing search for a zero-free Wronskian with all four
    branch coefficients active (so both kernel states are normalizable).

    The Wronskian is bilinear in the branches, so the four basis Wronskians
    are evaluated once on the seeds' window at a coarse sampling and the
    (theta1, theta2) scan is pure arithmetic.
    """
    spp_coarse = 256
    g1, d1, _ = bloch_branches(v, e1, samples_per_period=spp_coarse, rtol=rtol)
    g2, d2, _ = bloch_branches(v, e2, samples_per_period=spp_coarse, rtol=rtol)
    x = window_grid(float(v.period), periods, spp_coarse)
    basis = []
    for b1 in (g1, d1):
        u1, up1 = b1.evaluate(x)
        row = []
        for b2 in (g2, d2):
            u2, up2 = b2.evaluate(x)
            row.append(u1 * up2 - up1 * u2)
        basis.append(row)
    coeffs = [(np.cos(t), np.sin(t)) for t in _mixing_angles()]
    cos2, sin2 = np.array(coeffs).T[:, :, None]
    best = None
    best_score = -1.0
    for c1 in coeffs:
        # every second angle at once: row j is W at (c1, coeffs[j])
        w = (
            c1[0] * cos2 * basis[0][0]
            + c1[0] * sin2 * basis[0][1]
            + c1[1] * cos2 * basis[1][0]
            + c1[1] * sin2 * basis[1][1]
        )
        scores = _wronskian_score(w, spp_coarse)
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score = float(scores[j])
            best = (c1, coeffs[j])
    if best is None or best_score <= 0.0:
        raise SingularTransformError(
            f"no zero-free Wronskian mixing found for energies {e1}, {e2}"
        )
    (cp1, cm1), (cp2, cm2) = best
    kwargs = dict(periods=periods, samples_per_period=samples_per_period, rtol=rtol)
    return general_seed(v, e1, cp1, cm1, **kwargs), general_seed(v, e2, cp2, cm2, **kwargs)


def run_scenario(
    name: str,
    *,
    periods: int = DEFAULT_PERIODS,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
    rtol: float = floquet.DEFAULT_RTOL,
) -> ScenarioRun:
    """Execute a named scenario and return its seeds, transform, and context."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    sc = SCENARIOS[name]
    v = lame(sc.n, sc.m)
    bands = band_structure_for(v, rtol=rtol)
    kwargs = dict(periods=periods, samples_per_period=samples_per_period, rtol=rtol)

    if sc.mode == MODE_EDGE:
        energies = [bands.edges[i] for i in sc.edge_indices]
        chosen = [bloch_seed(v, e, **kwargs)[0] for e in energies]
    elif sc.mode == MODE_BLOCH:
        if sc.order == 1:
            chosen = [bloch_seed(v, sc.energies[0], **kwargs)[0]]
        else:
            chosen = list(_best_bloch_pair(v, *sc.energies, **kwargs))
    else:
        if sc.order == 1:
            eps = sc.energies[0]
            mix = nodeless_mixing(v, eps, periods=periods, rtol=rtol)
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
