import numpy as np
import pytest

from susyband import scenarios
from susyband.potentials import lame
from susyband.scenarios import (
    SCENARIOS,
    _best_mixing,
    _first_best,
    _mixing_angles,
    _wronskian_score,
    run_scenario,
)
from susyband.seeds import bloch_branches, window_grid


def test_registry_names():
    expected = {f"fig{i}{c}" for i in (1, 2, 3) for c in "abcd"}
    assert set(SCENARIOS) == expected


def test_registry_parameters():
    assert SCENARIOS["fig2c"].energies == (1.6, 2.9)
    assert SCENARIOS["fig2d"].energies == (2.3, 5.0)
    assert SCENARIOS["fig3c"].energies == (1.2, 1.3)
    assert SCENARIOS["fig3d"].energies == (1.51, 2.51)
    assert SCENARIOS["fig2a"].energies == (-1.0,)
    assert SCENARIOS["fig3b"].energies == (0.4,)
    assert all(s.m == 0.5 for s in SCENARIOS.values())
    assert [SCENARIOS[f"fig1{c}"].n for c in "abcd"] == [1, 2, 3, 3]


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("fig9z")


def test_scenario_shapes(scenario_cache):
    run = scenario_cache("fig1a")
    assert run.result.order == 1
    assert len(run.seeds) == 1
    assert run.seeds[0].kind == "bloch_edge"

    run = scenario_cache("fig2c")
    assert run.result.order == 2
    assert all(s.kind == "bloch_gap" for s in run.seeds)

    run = scenario_cache("fig3d")
    assert all(s.kind == "general" for s in run.seeds)
    assert all(s.coefficients is not None for s in run.seeds)


def test_fig2d_periodic_without_bound_states(scenario_cache):
    from susyband.analysis import bound_states_in_gaps

    run = scenario_cache("fig2d")
    assert run.result.periodic
    assert bound_states_in_gaps(run.result, run.band_structure) == []


def test_scenario_deterministic(scenario_cache):
    first = scenario_cache("fig3c")
    again = run_scenario("fig3c")
    assert first.seeds[0].coefficients == again.seeds[0].coefficients
    assert np.array_equal(first.result.partner_values, again.result.partner_values)


def _reference_general_mixing(v, e1, e2, periods=16, spp=256):
    """The mixing search as one Python loop over both angles and all cells,
    scored on the seeds' window; a later mixing wins by more than 1e-9
    relative, so of two mirror images the first is kept."""
    g1, d1, _ = bloch_branches(v, e1, samples_per_period=spp)
    g2, d2, _ = bloch_branches(v, e2, samples_per_period=spp)
    x = window_grid(v.period, periods, spp)
    basis = []
    for b1 in (g1, d1):
        u1, up1 = b1.evaluate(x)
        row = []
        for b2 in (g2, d2):
            u2, up2 = b2.evaluate(x)
            row.append(u1 * up2 - up1 * u2)
        basis.append(row)
    best, best_score = None, -1.0
    for t1 in _mixing_angles():
        c1 = (np.cos(t1), np.sin(t1))
        for t2 in _mixing_angles():
            c2 = (np.cos(t2), np.sin(t2))
            w = (
                c1[0] * c2[0] * basis[0][0]
                + c1[0] * c2[1] * basis[0][1]
                + c1[1] * c2[0] * basis[1][0]
                + c1[1] * c2[1] * basis[1][1]
            )
            score = np.inf
            for c in range(periods):
                seg = np.abs(w[c * spp : (c + 1) * spp + 1])
                top = np.max(seg)
                if top == 0.0:
                    score = 0.0
                    break
                score = min(score, float(np.min(seg) / top))
            if score > best_score * (1.0 + 1e-9):
                best_score, best = score, (c1, c2)
    return best


@pytest.mark.parametrize("name", ["fig3c", "fig3d"])
def test_general_pair_matches_reference_loop(scenario_cache, name):
    run = scenario_cache(name)
    c1, c2 = _reference_general_mixing(run.potential, *run.scenario.energies)
    assert run.seeds[0].coefficients == c1
    assert run.seeds[1].coefficients == c2


def test_general_pair_scores_the_seed_window_for_odd_periods():
    # 15 periods: the window is [-7T, 8T], not [-7T, 7T]
    run = run_scenario("fig3d", periods=15)
    c1, c2 = _reference_general_mixing(run.potential, *run.scenario.energies, periods=15)
    assert run.seeds[0].coefficients == c1
    assert run.seeds[1].coefficients == c2


def test_bloch_pair_tie_keeps_first(scenario_cache):
    # lame is even, so (growing at e1, decaying at e2) and its mirror image
    # (decaying at e1, growing at e2) tie; the first of the two is kept
    run = scenario_cache("fig2c")
    assert abs(run.seeds[0].multiplier) > 1.0 > abs(run.seeds[1].multiplier)


def _best_mixing_reference(basis, spp):
    """The mixing search scoring every candidate on the whole window: one
    row of second mixings per first mixing, the best by ``_first_best``."""
    coeffs = [(np.cos(t), np.sin(t)) for t in _mixing_angles()]
    cos2, sin2 = np.array(coeffs).T[:, :, None]
    scores = []
    for c1 in coeffs:
        w = (
            c1[0] * cos2 * basis[0][0]
            + c1[0] * sin2 * basis[0][1]
            + c1[1] * cos2 * basis[1][0]
            + c1[1] * sin2 * basis[1][1]
        )
        scores.append(_wronskian_score(w, spp))
    i, j = divmod(_first_best(np.concatenate(scores)), len(coeffs))
    return (coeffs[i], coeffs[j]), float(scores[i][j])


def _basis(n, e1, e2, spp=256, periods=16):
    """The four basis Wronskians of ``_best_general_pair`` on lame(n, 1/2)."""
    v = lame(n, 0.5)
    pairs = [bloch_branches(v, e, samples_per_period=spp)[:2] for e in (e1, e2)]
    window = [[b.window(periods) for b in pair] for pair in pairs]
    return [[u1 * up2 - up1 * u2 for u2, up2 in window[1]] for u1, up1 in window[0]]


@pytest.mark.parametrize("n, e1, e2", [
    (1, 1.2, 1.3), (2, 1.51, 2.51),  # fig3c, fig3d
    (2, 1.6, 2.9), (3, 2.3, 5.0),  # the gaps of fig2c, fig2d
    (1, -1.0, -0.5), (2, 0.0, 0.4), (3, -0.5, 0.2),  # below the spectrum
])
def test_best_mixing_matches_exhaustive_search(n, e1, e2):
    basis = _basis(n, e1, e2)
    assert _best_mixing(basis, 256) == _best_mixing_reference(basis, 256)


def test_best_mixing_with_a_cell_zero_on_its_bound_samples():
    # every 32nd sample of the middle cell is 0 in each basis Wronskian, so
    # the thinned window bounds no candidate there (bound 1, not 0 / 0); the
    # true scores are all 0 and the first candidate is kept
    basis = _basis(2, 1.51, 2.51)
    zeroed = [[b.copy() for b in row] for row in basis]
    for row in zeroed:
        for b in row:
            b[8 * 256 : 9 * 256 + 1 : scenarios._BOUND_STEP] = 0.0
    best = _best_mixing(zeroed, 256)
    assert best == _best_mixing_reference(zeroed, 256)
    coeffs = [(np.cos(t), np.sin(t)) for t in _mixing_angles()]
    assert best == ((coeffs[0], coeffs[0]), 0.0)


def test_best_mixing_scores_at_most_half_the_candidates(monkeypatch):
    # the bound prunes: of the 48 x 48 candidates of fig3c and fig3d at most
    # half are scored on the whole window (48 and 600 are)
    rows = []
    score = scenarios._wronskian_score
    monkeypatch.setattr(scenarios, "_wronskian_score",
                        lambda w, spp: rows.append(len(w)) or score(w, spp))
    for name in ("fig3c", "fig3d"):
        rows.clear()
        _best_mixing(_basis(SCENARIOS[name].n, *SCENARIOS[name].energies), 256)
        assert 0 < sum(rows) <= 48 * 48 // 2


def test_general_mixing_coefficients_pinned(scenario_cache):
    # the mixings of the general presets, bit for bit
    pins = {
        "fig3a": [("0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp-1")],
        "fig3b": [("0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp-1")],
        "fig3c": [("0x1.f0b6848d2af1cp-1", "0x1.f0b6848d2af1cp-3"),
                  ("-0x1.26bfcaabb0ffdp-2", "0x1.ea54cc6ff5ef3p-1")],
        "fig3d": [("0x1.7271d121f8feap-1", "0x1.616ed130402f6p-1"),
                  ("-0x1.f0b6848d2af15p-3", "0x1.f0b6848d2af1dp-1")],
    }
    for name, coefficients in pins.items():
        seeds = scenario_cache(name).seeds
        assert [tuple(float(c).hex() for c in s.coefficients) for s in seeds] == coefficients


def test_general_mixing_ignores_rounding_ties():
    # lame is even, so each mixing and its mirror image tie up to rounding;
    # perturbing the cross Wronskians by 1e-12 either way must not move the
    # choice, which is fig3d's at the parent as well, nor part it from the
    # exhaustive search
    sc, spp = SCENARIOS["fig3d"], 256
    basis = _basis(sc.n, *sc.energies)
    choices = set()
    for delta in (0.0, 1e-12, -1e-12):
        bent = [[basis[0][0], basis[0][1] * (1.0 + delta)], [basis[1][0] * (1.0 - delta), basis[1][1]]]
        best = _best_mixing(bent, spp)
        assert best == _best_mixing_reference(bent, spp)
        choices.add(best[0])
    assert len(choices) == 1
    (c1, c2), = choices
    assert c1 == pytest.approx((0.7235246042223455, 0.69029859270094), abs=1e-15)
    assert c2 == pytest.approx((-0.24253562503633277, 0.970142500145332), abs=1e-15)
