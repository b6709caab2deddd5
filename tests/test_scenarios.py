import numpy as np
import pytest

from susyband.scenarios import SCENARIOS, _mixing_angles, run_scenario
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
    scored on the seeds' window."""
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
            if score > best_score:
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
