import math

import numpy as np
import pytest

from susyband.analysis import (
    _offset_errors,
    bound_states_in_gaps,
    compare_band_structure,
    displacement_fit,
    invariance_test,
    shooting_eigenvalue,
)
from susyband.errors import BandEnergyError, PeriodMismatchError
from susyband.darboux import susy1
from susyband.floquet import discriminant
from susyband.potentials import ConstantPotential, ShiftedPotential, lame
from susyband.seeds import bloch_seed

LAME1 = lame(1, 0.5)
LAME2 = lame(2, 0.5)


def test_compare_shifted_is_invisible():
    grid = np.linspace(0.2, 2.5, 20)
    dev = compare_band_structure(LAME1, ShiftedPotential(LAME1, 0.77), grid)
    assert dev < 1e-9


def test_compare_distinct_potentials():
    v1 = lame(1, 0.5)
    # same period, different index: spectra differ visibly
    dev = compare_band_structure(v1, lame(2, 0.5), np.linspace(0.2, 2.5, 20))
    assert dev > 0.1


def test_period_mismatch_rejected():
    with pytest.raises(PeriodMismatchError):
        compare_band_structure(lame(1, 0.5), lame(1, 0.6), [1.0])


def test_displacement_fit_recovers_exact_shifts():
    period = LAME1.period
    rng = np.random.default_rng(17)
    for delta in rng.uniform(0.0, period, 20):
        found, residual = displacement_fit(LAME1, ShiftedPotential(LAME1, float(delta)))
        err = abs((found - delta + period / 2) % period - period / 2)
        assert err < 1e-8
        assert residual < 1e-10


def test_displacement_fit_fig1a(scenario_cache):
    run = scenario_cache("fig1a")
    delta, residual = displacement_fit(run.potential, run.result.partner)
    assert delta == pytest.approx(run.potential.period / 2, abs=1e-4)
    assert residual < 1e-4


def _grid_errors(v, w_values, xs):
    # reference: v evaluated on the full (1024 offsets) x (2048 samples) grid
    deltas = np.linspace(0.0, v.period, 1024, endpoint=False)
    grid = xs[None, :] + deltas[:, None]
    return np.max(np.abs(np.asarray(v(grid), dtype=float) - w_values[None, :]), axis=1)


def _grid_displacement_fit(v, w):
    # reference: displacement_fit with the full-grid coarse scan
    period = v.period
    xs = np.linspace(0.0, period, 2048, endpoint=False)
    w_values = np.asarray(w(xs), dtype=float)
    deltas = np.linspace(0.0, period, 1024, endpoint=False)
    best = int(np.argmin(_grid_errors(v, w_values, xs)))

    def mismatch(delta):
        return float(np.max(np.abs(np.asarray(v(xs + delta), dtype=float) - w_values)))

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    step = period / 1024
    a, b = deltas[best] - step, deltas[best] + step
    c, d = b - golden * (b - a), a + golden * (b - a)
    f_c, f_d = mismatch(c), mismatch(d)
    for _ in range(60):
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - golden * (b - a)
            f_c = mismatch(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + golden * (b - a)
            f_d = mismatch(d)
        if b - a < 1e-12:
            break
    delta = 0.5 * (a + b)
    return float(delta % period), mismatch(delta)


def test_rolled_scan_matches_grid_scan(scenario_cache):
    fig1a = scenario_cache("fig1a")
    pairs = [(v, susy1(v, bloch_seed(v, -0.5)[0]).partner) for v in (LAME1, LAME2, lame(3, 0.5))]
    pairs += [
        (LAME1, ShiftedPotential(LAME1, 0.77)),
        (fig1a.potential, fig1a.result.partner),
        # every offset scores the same: both scans keep the first
        (ConstantPotential(0.3, period=2.0), ConstantPotential(0.1, period=2.0)),
    ]
    for v, w in pairs:
        xs = np.linspace(0.0, v.period, 2048, endpoint=False)
        w_values = np.asarray(w(xs), dtype=float)
        errs = _offset_errors(v, w_values, xs)
        expected = _grid_errors(v, w_values, xs)
        assert np.max(np.abs(errs - expected)) <= 1e-13
        assert np.argmin(errs) == np.argmin(expected)
    assert np.argmin(errs) == 0
    fit = displacement_fit(fig1a.potential, fig1a.result.partner)
    assert fit == _grid_displacement_fit(fig1a.potential, fig1a.result.partner)


def test_displacement_not_a_copy(scenario_cache):
    run = scenario_cache("fig1b")  # n=2 lowest-edge transform
    _, residual = displacement_fit(run.potential, run.result.partner)
    assert residual > 0.1


def test_invariance_n1_below_spectrum():
    report = invariance_test(LAME1, -1.0)
    assert report.invariant
    assert report.residual_product < 1e-4
    assert report.residual_displacement < 1e-4


def test_invariance_n2_fails():
    report = invariance_test(LAME2, 0.4)
    assert not report.invariant
    assert report.residual_displacement > 1e-2


def test_invariance_at_edge_half_period():
    report = invariance_test(LAME1, 0.5)
    assert report.invariant
    assert report.delta == pytest.approx(LAME1.period / 2, abs=1e-4)


def test_invariance_midband_error():
    with pytest.raises(BandEnergyError):
        invariance_test(LAME1, 0.75)


def test_invariance_report_schema():
    report = invariance_test(LAME1, -1.0)
    doc = report.to_dict()
    assert set(doc) == {
        "epsilon",
        "delta",
        "residual_displacement",
        "residual_product",
        "verdict",
    }
    assert doc["verdict"] == "invariant"


@pytest.mark.parametrize("m", [0.3, 0.5, 0.7])
def test_invariance_across_parameter(m):
    v = lame(1, m)
    e0 = m  # the lowest edge of the n=1 family sits at the parameter itself
    for frac in (0.15, 0.35, 0.55, 0.75, 0.95):
        eps = e0 - 0.2 - frac  # five energies below the spectrum
        report = invariance_test(v, eps)
        assert report.invariant, (m, eps, report)
        assert report.residual_product < 1e-4
        assert report.residual_displacement < 1e-4


def test_bound_states_fig3(scenario_cache):
    run = scenario_cache("fig3b")
    states = bound_states_in_gaps(run.result, run.band_structure)
    assert len(states) == 1
    state = states[0]
    assert state.epsilon == 0.4
    assert state.gap_index == 0  # below the first edge
    assert state.decay_rate_relative_error < 0.05

    run = scenario_cache("fig3d")
    states = bound_states_in_gaps(run.result, run.band_structure)
    assert len(states) == 2
    assert [s.gap_index for s in states] == [1, 1]
    assert all(s.decay_rate_relative_error < 0.05 for s in states)


def test_bound_states_empty_for_bloch(scenario_cache):
    run = scenario_cache("fig2c")
    assert bound_states_in_gaps(run.result, run.band_structure) == []


def test_decay_matches_multiplier(scenario_cache):
    # expected rate equals log beta_+ / T of the original potential at eps
    run = scenario_cache("fig3a")
    state = run.result.kernel[0]
    d = discriminant(run.potential, state.epsilon)
    beta_plus = abs(d) / 2 + math.sqrt(d * d / 4 - 1.0)
    rate = math.log(beta_plus) / run.potential.period
    assert state.expected_decay_rate == pytest.approx(rate, rel=1e-9)
    assert state.decay_rate == pytest.approx(rate, rel=0.05)


def test_shooting_finds_created_level(scenario_cache):
    run = scenario_cache("fig3a")
    partner = run.result.partner
    x = run.result.x
    # the wide bracket crosses E = -0.78, where the defect row that gives the
    # 1/beta far-field vector switches; an unoriented vector flips sign there
    for e_lo, e_hi in ((-0.05, 0.05), (-0.5, 0.45)):
        found = shooting_eigenvalue(partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1])
        assert found == pytest.approx(0.0, abs=1e-3)


def test_shooting_no_eigenvalue_in_empty_bracket(scenario_cache):
    # slices of fig3a's gap away from the created level at 0, and the Bloch
    # partner of fig2a, which has no level below the spectrum
    for name, e_lo, e_hi in (("fig3a", 0.12, 0.18), ("fig3a", -0.5, -0.01), ("fig2a", -1.5, 0.45)):
        run = scenario_cache(name)
        x = run.result.x
        found = shooting_eigenvalue(run.result.partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1])
        assert found is None


def test_shooting_ignores_bloch_vector_flips(scenario_cache):
    # in these gaps of the order-2 Bloch partners a far-field cell's b01
    # vanishes (at 1.70758 and 2.34607), where bloch_vectors' orientation
    # flips the boundary vector; neither partner has a level there
    for name, e_lo, e_hi in (("fig2c", 1.605, 2.895), ("fig2d", 2.305, 4.995)):
        run = scenario_cache(name)
        x = run.result.x
        found = shooting_eigenvalue(run.result.partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1])
        assert found is None
