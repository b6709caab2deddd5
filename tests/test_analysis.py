import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from susyband import floquet
from susyband.analysis import (
    _FIT_ITERS,
    _INVARIANCE_TOL,
    _SCAN_MARGIN,
    _SCAN_RTOL,
    _SHOOTING_RTOL,
    _SHOOTING_SCAN,
    _SHOOTING_WIDTH,
    _best_offset,
    _golden_section,
    _product_variation,
    bound_states_in_gaps,
    compare_band_structure,
    displacement_fit,
    invariance_test,
    shooting_eigenvalue,
)
from susyband.errors import BandEnergyError, PeriodMismatchError, SingularTransformError
from susyband import seeds as seeds_module
from susyband.darboux import susy1
from susyband.floquet import band_edges, discriminant, growing_multiplier
from susyband.numdiff import itp_root
from susyband.potentials import (
    ConstantPotential,
    Potential,
    ShiftedPotential,
    TabulatedPotential,
    lame,
)
from susyband.seeds import bloch_seed, general_seed, nodeless_mixing
from test_floquet import lame_edges_closed_form

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


def _displaced_copies(scenario_cache):
    fig1a = scenario_cache("fig1a")
    return [(LAME1, ShiftedPotential(LAME1, 0.77)), (fig1a.potential, fig1a.result.partner)]


def test_rolled_scan_matches_grid_scan(scenario_cache):
    fig1a = scenario_cache("fig1a")
    pairs = [(v, susy1(v, bloch_seed(v, -0.5)[0]).partner) for v in (LAME1, LAME2, lame(3, 0.5))]
    pairs += _displaced_copies(scenario_cache)
    # every offset scores the same: both scans keep the first
    pairs.append((ConstantPotential(0.3, period=2.0), ConstantPotential(0.1, period=2.0)))
    for v, w in pairs:
        xs = np.linspace(0.0, v.period, 2048, endpoint=False)
        w_values = np.asarray(w(xs), dtype=float)
        best, _ = _best_offset(np.asarray(v(xs), dtype=float), w_values)
        assert best == np.argmin(_grid_errors(v, w_values, xs))
    assert best == 0
    fit = displacement_fit(fig1a.potential, fig1a.result.partner)
    assert fit == _grid_displacement_fit(fig1a.potential, fig1a.result.partner)


def test_pruned_scan_scores_few_offsets(scenario_cache):
    # the lower bounds rule out all but a handful of offsets
    for v, w in _displaced_copies(scenario_cache):
        xs = np.linspace(0.0, v.period, 2048, endpoint=False)
        _, scored = _best_offset(np.asarray(v(xs), dtype=float), np.asarray(w(xs), dtype=float))
        assert scored <= 64


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rough", "levels", "copy"]))
def test_pruned_scan_is_the_full_argmin(seed, kind):
    # against np.argmin over every offset's full score: on rough data, on data
    # of two levels (many offsets tie), and on a noisy copy of a signal with
    # four repeats per period (four offsets tie at the least score)
    rng = np.random.default_rng(seed)
    v_values, w_values = rng.standard_normal((2, 2048))
    if kind == "levels":
        v_values, w_values = np.sign(v_values), np.sign(w_values)
    elif kind == "copy":
        v_values = np.tile(v_values[:512], 4)
        w_values = np.roll(v_values, -2 * int(rng.integers(1024))) + 1e-3 * w_values
    rolled = np.stack([np.roll(v_values, -2 * i) for i in range(1024)])
    expected = np.argmin(np.max(np.abs(rolled - w_values), axis=1))
    assert _best_offset(v_values, w_values)[0] == expected


def test_displacement_not_a_copy(scenario_cache):
    run = scenario_cache("fig1b")  # n=2 lowest-edge transform
    _, residual = displacement_fit(run.potential, run.result.partner)
    assert residual > 0.1


class _Counting(Potential):
    """v, counting its calls on the 2048 samples of a whole period and
    recording the sizes of the others (the active-set evaluations)."""

    def __init__(self, base):
        self.base, self.period = base, base.period
        self.full, self.sizes = 0, []

    def __call__(self, x):
        if np.size(x) == 2048:
            self.full += 1
        else:
            self.sizes.append(np.size(x))
        return self.base(x)


class _Planted(Potential):
    """base, with value at the sample x of the fit's grid."""

    def __init__(self, base, x, value):
        self.base, self.period, self.x, self.value = base, base.period, x, value

    def __call__(self, x):
        out = np.array(self.base(x), dtype=float)
        out[x == self.x] = self.value
        return out


def _same_fit(fit, reference, period):
    # delta to 1e-12 modulo the period, a residual no larger than the reference's
    delta, residual = fit
    assert abs((delta - reference[0] + period / 2) % period - period / 2) < 1e-12
    assert residual <= reference[1]


@lru_cache(maxsize=None)
def _lowest_edge(n, m):
    v = lame(n, m)
    return band_edges(v, *v.band_window).edges[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 3), st.floats(0.05, 0.97), st.floats(0.02, 0.8), st.integers(0, 1))
def test_active_set_fit_is_the_full_grid_fit(n, m, below, pick):
    # the fit on active samples against golden section on every sample
    v = lame(n, m)
    w = susy1(v, bloch_seed(v, _lowest_edge(n, m) - below)[pick]).partner
    _same_fit(displacement_fit(v, w), _grid_displacement_fit(v, w), v.period)


def test_fit_evaluates_the_full_period_a_few_times(scenario_cache):
    # the scan's v(xs) and one confirmation per pass: 2, 3 and 3 here, where
    # golden section on every sample took 52
    fig1a = scenario_cache("fig1a")
    pairs = [(fig1a.potential, fig1a.result.partner), (LAME1, ShiftedPotential(LAME1, 0.77)),
             (LAME2, susy1(LAME2, bloch_seed(LAME2, -0.5)[0]).partner)]
    for v, w in pairs:
        counting = _Counting(v)
        _same_fit(displacement_fit(counting, w), _grid_displacement_fit(v, w), v.period)
        assert 2 <= counting.full <= 4


@pytest.mark.parametrize("spike", [1e-6, 1e-4])
def test_active_set_grows_to_a_planted_spike(spike):
    # a displaced copy with one sample raised where v' = 0: the seeding
    # residuals there are least, yet the spike holds the maximum at the fit
    period = LAME1.period
    x = np.linspace(0.0, period, 2049)
    values = LAME1(x + 0.77)
    k = int(round((period / 2 - 0.77) / period * 2048))
    values[k] += spike
    w = TabulatedPotential(0.0, period / 2048, values, period)
    counting = _Counting(LAME1)
    fit = displacement_fit(counting, w)
    _same_fit(fit, _grid_displacement_fit(LAME1, w), period)
    assert 0.5 * spike < fit[1] <= spike
    # the passes score growing active sets
    assert sorted(set(counting.sizes)) == list(dict.fromkeys(counting.sizes))
    assert len(set(counting.sizes)) == counting.full - 1 >= 2


def _sequential_golden(f, a, b):
    """Golden section one score at a time, as displacement_fit's refinement was."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    f_c, f_d = f(c), f(d)
    for _ in range(_FIT_ITERS):
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - golden * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + golden * (b - a)
            f_d = f(d)
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.floats(-1.0, 1.0), st.floats(-14.0, 0.0),
       st.lists(st.tuples(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1e-3, 1.0, 1e3])),
                min_size=1, max_size=4),
       st.sampled_from([0.0, 1e-9, 0.3]), st.floats(-1.0, 1.0))
def test_golden_section_is_the_sequential_one(a, log_width, kinks, flat, level):
    # f(d) = max(max_k |s_k (d - d_k)|, flat) + level: kinks inside and outside
    # the bracket, flat stretches (s_k = 0, or the floor) where scores tie, and
    # brackets of 1e-14 to 1: the points scored several at a time replay the
    # one-at-a-time steps, bit for bit
    b = a + 10.0**log_width
    where = np.array([a + t * (b - a) for t, _ in kinks])
    slopes = np.array([s for _, s in kinks])

    def scores(d):
        return np.maximum(np.max(np.abs(slopes * (d[:, None] - where)), axis=1), flat) + level

    calls = []

    def counting(d):
        calls.append(d.size)
        return scores(d)

    found = _golden_section(counting, a, b)
    assert found == _sequential_golden(lambda d: float(scores(np.array([d]))[0]), a, b)
    assert set(calls) == {7}


class _Calls(Potential):
    """base, recording the number of points of each call in order."""

    def __init__(self, base):
        self.base, self.period, self.sizes = base, base.period, []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.base(x)


def test_golden_pass_calls_v_a_few_times():
    # one call per golden-section step took 51; between two evaluations on
    # every sample of the period, a pass now takes at most 21
    v = _Calls(LAME1)
    w = susy1(LAME1, bloch_seed(LAME1, -1.0)[0]).partner
    assert displacement_fit(v, w) == displacement_fit(LAME1, w)
    full = [i for i, size in enumerate(v.sizes) if size == 2048]
    assert full[0] == 0 and full[-1] == len(v.sizes) - 1
    calls = np.diff(full) - 1  # per pass, between its seeding scan or confirmation and the next
    assert len(calls) >= 1 and np.all((1 <= calls) & (calls <= 21)), calls


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["v", "w"])
def test_displacement_fit_names_a_nonfinite_sample(name, value):
    x = float(np.linspace(0.0, LAME1.period, 2048, endpoint=False)[700])
    planted = _Planted(LAME1, x, value)
    v, w = (planted, LAME1) if name == "v" else (LAME1, planted)
    message = f"{name} is {value!r} at x = {x!r}, not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        displacement_fit(v, w)


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


def _two_seed_fields(v, epsilon):
    """The fields of ``invariance_test`` built the two-seed way: both seeds
    of ``bloch_seed``, the growing one transformed by ``susy1``, then the
    same analysis calls."""
    grow, decay = bloch_seed(v, epsilon)
    branches, period = (grow.branches[0][1], decay.branches[0][1]), float(v.period)

    def product_residual(delta, samples=2048):
        return min(_product_variation(*branches, delta, period, samples),
                   _product_variation(*branches[::-1], delta, period, samples))

    try:
        delta, residual_disp = displacement_fit(v, susy1(v, grow).partner)
    except SingularTransformError:
        residual_disp = math.inf
        deltas = np.linspace(0.0, period, 512, endpoint=False)
        delta = float(deltas[int(np.argmin([product_residual(d, 512) for d in deltas]))])
    residual_prod = product_residual(delta)
    return (delta, residual_disp, residual_prod,
            residual_disp < _INVARIANCE_TOL and residual_prod < _INVARIANCE_TOL)


@pytest.mark.parametrize("n, epsilon, fields", [
    (1, -1.0, (True, True)),
    (2, 0.4, (False, True)),
    (1, 0.5, (True, True)),
    (2, 1.6, (False, False)),
])
def test_invariance_assembles_one_seed(monkeypatch, n, epsilon, fields):
    # only the growing seed is assembled; the decaying branch comes from the
    # same bloch_branches call.  The fields are exactly those built from both
    # seeds: below the spectrum, at an edge and in a gap, where the verdict and
    # whether the displacement fit ran (the transform is singular) are pinned
    v = lame(n, 0.5)
    reference = _two_seed_fields(v, epsilon)
    calls = []
    assemble = seeds_module._assemble
    monkeypatch.setattr(seeds_module, "_assemble",
                        lambda *args: calls.append(args) or assemble(*args))
    report = invariance_test(v, epsilon)
    assert len(calls) == 1
    assert (report.delta, report.residual_displacement, report.residual_product,
            report.invariant) == reference
    assert (report.invariant, math.isfinite(report.residual_displacement)) == fields


class _Windows(Potential):
    """base, recording the number of points of every call that spans more
    than one period: a seed window."""

    def __init__(self, base):
        self.base, self.period, self.even, self.windows = base, base.period, base.even, []

    def __call__(self, x):
        if np.ptp(x) > self.period:
            self.windows.append(np.size(x))
        return self.base(x)


@pytest.mark.parametrize("n, epsilon", [(1, -1.0), (2, 1.6)])
def test_invariance_seed_on_two_periods(n, epsilon):
    # by default V is evaluated on one window, [-T, T] at 2048 samples per
    # period; a caller's periods still sets it
    v = _Windows(lame(n, 0.5))
    invariance_test(v, epsilon)
    assert v.windows == [2 * 2048 + 1]
    v = _Windows(lame(n, 0.5))
    invariance_test(v, epsilon, periods=16)
    assert v.windows == [16 * 2048 + 1]


def _invariance_outcome(v, epsilon, **seed_kwargs):
    try:
        return invariance_test(v, epsilon, **seed_kwargs).to_dict()
    except (ValueError, RuntimeError) as exc:  # every library error is one of these
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 3), st.floats(0.05, 0.95), st.sampled_from(["below", "gap", "edge"]),
       st.floats(0.0, 1.0))
def test_invariance_report_is_window_free(n, m, where, frac):
    # the report on the default two-period window is the one on 16 periods:
    # below the spectrum, inside the first gap, and 1e-8 to 1e-2 below the
    # lowest edge
    edges = lame_edges_closed_form(n, m)
    epsilon = {
        "below": edges[0] - 0.01 - 2.0 * frac,
        "gap": edges[1] + (0.05 + 0.9 * frac) * (edges[2] - edges[1]),
        "edge": edges[0] - 10.0 ** (-8.0 + 6.0 * frac),
    }[where]
    v = lame(n, m)
    assert _invariance_outcome(v, epsilon) == _invariance_outcome(v, epsilon, periods=16)


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


@lru_cache(maxsize=None)
def _general_partner(n, m):
    """The order-1 partner of lame(n, m) from a nodeless general seed 0.3
    below the lowest edge, and that seed energy."""
    v = lame(n, m)
    eps = band_edges(v, -1.0, n * (n + 1) + 1.0).edges[0] - 0.3
    return susy1(v, general_seed(v, eps, *nodeless_mixing(v, eps))), eps


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("m", [0.3, 0.5, 0.9])
def test_shooting_returns_seed_energy(n, m):
    # the level on a scan point, and 0.4 of a scan cell from one
    result, eps = _general_partner(n, m)
    x = result.x
    for e_lo, e_hi in ((eps - 0.05, eps + 0.05), (eps - 0.04, eps + 0.06)):
        found = shooting_eigenvalue(result.partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1])
        assert abs(found - eps) < 1e-8, (e_lo, e_hi)


def test_shooting_level_does_not_depend_on_window():
    result, eps = _general_partner(3, 0.5)
    partner, x = result.partner, result.x
    t = partner.period

    def level(x_lo, x_hi):
        return shooting_eigenvalue(partner, eps - 0.04, eps + 0.06, x_lo=x_lo, x_hi=x_hi)

    base = level(x[0], x[-1])
    assert level(-2 * t, 3 * t) == pytest.approx(base, abs=1e-8)
    # 15 whole periods from 0.3 T past the window's start, matched at -0.7 T
    assert level(x[0] + 0.3 * t, x[-1] - 0.2 * t) == pytest.approx(base, abs=1e-8)
    with pytest.raises(ValueError, match="needs at least two"):
        level(0.0, 1.9 * t)


def test_shooting_rejects_bad_bracket(scenario_cache):
    # a reversed bracket scanned downward and returned 0.323828125, no level;
    # a NaN end reached the integrator and failed as a step-size underflow
    run = scenario_cache("fig3a")
    x = run.result.x
    for e_lo, e_hi in ((0.45, -0.5), (math.nan, 0.05), (-0.05, math.inf), (0.1, 0.1)):
        with pytest.raises(ValueError, match="shooting bracket"):
            shooting_eigenvalue(run.result.partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1])


def test_shooting_far_field_check_at_the_edge(scenario_cache, monkeypatch):
    # fig3a's far field has its lowest edge at 0.5: a last scan energy 1e-7
    # below it is in the gap and one 1e-7 above it is not; |D| is within
    # 1.5e-6 of 2 there, so the tight rtol decides
    run = scenario_cache("fig3a")
    partner, x = run.result.partner, run.result.x
    edge = run.band_structure.edges[0]
    calls = []
    cell_matrices = floquet.cell_matrices

    def recording(v, energies, *args, rtol):
        calls.append((np.array(energies, dtype=float), rtol))
        return cell_matrices(v, energies, *args, rtol=rtol)

    monkeypatch.setattr(floquet, "cell_matrices", recording)
    assert shooting_eigenvalue(partner, edge - 0.1, edge - 1e-7, x_lo=x[0], x_hi=x[-1]) is None
    assert calls[1][1] == _SHOOTING_RTOL and edge - 1e-7 in calls[1][0]
    with pytest.raises(ValueError, match="energy 0.5 is not in a spectral gap"):
        shooting_eigenvalue(partner, edge - 0.1, edge + 1e-7, x_lo=x[0], x_hi=x[-1])
    # the first energy in the band is named, as by a tight scan
    with pytest.raises(ValueError, match="energy 0.5 is not in a spectral gap"):
        shooting_eigenvalue(partner, edge - 0.1, edge + 0.1, x_lo=x[0], x_hi=x[-1])


def _reference_mismatch(w, energies, x_lo, x_hi, rtol):
    """shooting_eigenvalue's mismatch at the energies with the window's cells
    integrated at rtol, as written before the scan was loosened; ValueError
    where a far-field |D| <= 2."""
    n = math.floor((x_hi - x_lo) / w.period + 1e-9)
    e = np.asarray(energies, dtype=float)
    cells = floquet.cell_matrices(w, e, x_lo, x_lo + n * w.period, rtol=rtol)
    far = np.concatenate((cells[0], cells[-1]))
    d = far[:, 0, 0] + far[:, 1, 1]
    if np.any(np.abs(d) <= 2.0):
        raise ValueError("a shooting energy is not in a spectral gap of the far field")
    grow = growing_multiplier(d)
    beta = np.concatenate((grow[: e.size], 1.0 / grow[e.size :]))
    left, right = np.split(floquet.bloch_vectors(far, beta), 2)
    for b in cells[: n // 2]:
        left = np.einsum("nij,nj->ni", b, left)
    for b in floquet._adjugate(cells[n // 2 :][::-1]):
        right = np.einsum("nij,nj->ni", b, right)
    wronskian = left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]
    scale = np.sqrt(np.sum(left**2, axis=1) * np.sum(right**2, axis=1))
    return wronskian / scale * (np.sum(left * right, axis=1) / scale)


def _shooting_reference(w, e_lo, e_hi, x_lo, x_hi, scan):
    """shooting_eigenvalue with one tolerance, as it was: the first rising sign
    change of `scan`, the mismatch at the _SHOOTING_SCAN energies at
    _SHOOTING_RTOL, narrowed by ITP."""
    es = np.linspace(e_lo, e_hi, _SHOOTING_SCAN)
    rising = np.nonzero(np.diff(np.sign(scan)) > 0.0)[0]
    if rising.size == 0:
        return None
    i = int(rising[0])
    return float(itp_root(
        lambda e: float(_reference_mismatch(w, [e], x_lo, x_hi, _SHOOTING_RTOL)[0]),
        es[i], es[i + 1], scan[i], scan[i + 1], _SHOOTING_WIDTH, 0.2 / (e_hi - e_lo)))


@pytest.fixture(scope="module")
def shooting_cases(scenario_cache):
    """(partner, e_lo, e_hi, x_lo, x_hi, tight scan) of 30 shooting calls: the
    general-seed partners of lame(1 or 3, m) in three brackets each, the
    criterion-10 brackets of fig3a-fig3d, fig3a's wide bracket and the five
    empty brackets above."""
    cases = []
    for n in (1, 3):
        for m in (0.3, 0.5, 0.9):
            result, eps = _general_partner(n, m)
            for lo, hi in ((-0.05, 0.05), (-0.04, 0.06), (-0.03, 0.07)):
                cases.append((result.partner, eps + lo, eps + hi, result.x))
    for name in ("fig3a", "fig3b", "fig3c", "fig3d"):
        run = scenario_cache(name)
        bands = run.band_structure
        for state in bound_states_in_gaps(run.result, bands):
            gap = (-math.inf, bands.edges[0]) if state.gap_index == 0 else bands.gaps[state.gap_index - 1]
            lo, hi = max(state.epsilon - 0.05, gap[0] + 1e-3), min(state.epsilon + 0.05, gap[1] - 1e-3)
            cases.append((run.result.partner, lo, hi, run.result.x))
    for name, lo, hi in (("fig3a", -0.5, 0.45), ("fig3a", 0.12, 0.18), ("fig3a", -0.5, -0.01),
                         ("fig2a", -1.5, 0.45), ("fig2c", 1.605, 2.895), ("fig2d", 2.305, 4.995)):
        run = scenario_cache(name)
        cases.append((run.result.partner, lo, hi, run.result.x))
    return [
        (w, lo, hi, x[0], x[-1],
         _reference_mismatch(w, np.linspace(lo, hi, _SHOOTING_SCAN), x[0], x[-1], _SHOOTING_RTOL))
        for w, lo, hi, x in cases
    ]


def test_shooting_matches_tight_scan_reference(shooting_cases):
    # the loose scan decides no sign on its own that could differ from the
    # tight one, so the level is the same root, to the final bracket
    assert len(shooting_cases) == 30
    nones = 0
    for w, lo, hi, x_lo, x_hi, scan in shooting_cases:
        expected = _shooting_reference(w, lo, hi, x_lo, x_hi, scan)
        found = shooting_eigenvalue(w, lo, hi, x_lo=x_lo, x_hi=x_hi)
        if expected is None:
            nones += 1
            assert found is None, (lo, hi)
        else:
            assert abs(found - expected) <= 1e-10, (lo, hi, found, expected)
    assert nones == 5


def test_shooting_scan_error_leaves_margin(shooting_cases):
    # a loose scan value decides a sign only beyond _SCAN_MARGIN; its error
    # stays 20 times below that (1.3e-5 seen, on fig3d's level at 1.51)
    worst = 0.0
    for w, lo, hi, x_lo, x_hi, scan in shooting_cases:
        loose = _reference_mismatch(w, np.linspace(lo, hi, _SHOOTING_SCAN), x_lo, x_hi, _SCAN_RTOL)
        worst = max(worst, float(np.max(np.abs(loose - scan))))
    assert worst <= _SCAN_MARGIN / 20


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.sampled_from([1, 2, 3]), st.floats(0.2, 0.9), st.floats(0.25, 0.75))
def test_shooting_level_inside_scan_cell(n, m, frac):
    # the general seed's level frac of a scan cell above a scan energy, where
    # no scan value is doubtful (|mismatch| > 1.5e-3 a quarter cell from the
    # level): the signs of the loose scan alone bracket it
    v = lame(n, m)
    eps = band_edges(v, -1.0, n * (n + 1) + 1.0).edges[0] - 0.3
    result = susy1(v, general_seed(v, eps, *nodeless_mixing(v, eps)))
    x = result.x
    e_lo = eps - (32 + frac) * 0.1 / (_SHOOTING_SCAN - 1)
    calls = []
    cell_matrices = floquet.cell_matrices

    def recording(w, energies, *args, **kwargs):
        calls.append(np.array(energies, dtype=float))
        return cell_matrices(w, energies, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "cell_matrices", recording)
        found = shooting_eigenvalue(result.partner, e_lo, e_lo + 0.1, x_lo=x[0], x_hi=x[-1])
    assert abs(found - eps) < 1e-8
    assert not np.isin(np.concatenate(calls[1:]), calls[0]).any()


def _bracket_history(f, a, b):
    """Wrap f to record, per evaluation, its point, the bracket before it,
    and the bracket's width after it."""
    history = []

    def wrapped(e):
        nonlocal a, b
        y = f(e)
        before = (a, b)
        a, b = (e, b) if y < 0.0 else (a, e)
        history.append((e, before, b - a))
        return y

    return wrapped, history


def test_root_finder_never_evaluates_bracket_ends():
    # the root sits on the first regula falsi point and on the midpoint.  In
    # the first case the sign of f alternates within 1e-13 of it from call to
    # call: a step that evaluated a bracket end again could see the bracket
    # vanish.  In the second, f is 0 there, so the next regula falsi point is
    # that bracket end, and with a tiny kappa1 only the width / 2 floor of
    # the move keeps the step off it
    for wobble, kappa1 in ((1e-13, 0.2), (1e-13, 1e-6), (0.0, 1e-6)):
        calls = []

        def f(e):
            calls.append(e)
            return e - 0.5 + wobble * (-1) ** len(calls)

        g, history = _bracket_history(f, 0.0, 1.0)
        found = itp_root(g, 0.0, 1.0, -0.5, 0.5, 1e-10, kappa1)
        assert abs(found - 0.5) <= 1e-10
        assert all(isinstance(e, float) for e in calls)
        assert len(set(calls)) == len(calls)
        for e, (lo, hi), _ in history:
            assert lo < e < hi


def test_root_finder_stops_at_width():
    # a straight line: the bracket first falls to the width at the last step
    for width in (1e-6, 1e-12):
        g, history = _bracket_history(lambda e: e - 0.3, 0.0, 1.0)
        found = itp_root(g, 0.0, 1.0, -0.3, 0.7, width, 0.2)
        assert found == pytest.approx(0.3, abs=0.5 * width)
        widths = [w for _, _, w in history]
        assert widths[-1] <= width < min(widths[:-1], default=1.0)
        assert len(history) < math.log2(1.0 / width)


@pytest.mark.parametrize("root", [1e-3, 0.3, 0.5, 0.77, 1.0 - 1e-9])
@pytest.mark.parametrize("high", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("kappa1", [0.2, 1e-6])
def test_root_finder_worst_case_is_bisection_plus_one(root, high, kappa1):
    # a step function defeats the interpolation: ITP still needs at most
    # one evaluation more than bisection
    g, history = _bracket_history(lambda e: -1.0 if e < root else high, 0.0, 1.0)
    found = itp_root(g, 0.0, 1.0, -1.0, high, 1e-10, kappa1)
    assert len(history) <= math.ceil(math.log2(1.0 / 1e-10)) + 1
    # up to the rounding of the bracket ends, which lie in [0, 1]
    assert history[-1][2] <= 1e-10 + 8 * np.spacing(1.0)
    assert abs(found - root) <= 1e-10


def jacobi_zeta(u, m):
    """Jacobi's zeta function Z(u|m) = E(am u|m) - E(m) u / K(m) (DLMF 22.16.32)."""
    am = special.ellipj(u, m)[3]
    return special.ellipeinc(am, m) - special.ellipe(m) / special.ellipk(m) * u


def _hermite_eta(m, eps):
    """eta in (0, K) with ns^2(eta|m) = 1 + m - eps, below the spectrum of
    lame(1, m): Hermite's solution of parameter eta + iK' (Whittaker &
    Watson, ch. 23)."""
    return special.ellipkinc(math.asin(1.0 / math.sqrt(1.0 + m - eps)), m)


_BELOW_LAME1 = st.tuples(
    st.floats(0.05, 0.95), st.floats(0.0, 1.0)
).map(lambda p: (p[0], -2.0 + p[1] * (p[0] - 1e-3 + 2.0)))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(_BELOW_LAME1)
def test_lame1_displacement_closed_form(m_eps):
    # the partner from the growing Bloch seed is lame(1, m) displaced by 2K - eta
    m, eps = m_eps
    v = lame(1, m)
    partner = susy1(v, bloch_seed(v, eps)[0]).partner
    delta, _ = displacement_fit(v, partner)
    assert delta == pytest.approx(2.0 * special.ellipk(m) - _hermite_eta(m, eps), abs=1e-10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_BELOW_LAME1)
def test_lame1_decay_rate_closed_form(m_eps):
    # log beta / T = Z(eta|m) + cn dn / sn (eta|m)
    m, eps = m_eps
    v = lame(1, m)
    eta = _hermite_eta(m, eps)
    sn, cn, dn, _ = special.ellipj(eta, m)
    rate = math.log(growing_multiplier(discriminant(v, eps))) / v.period
    assert rate == pytest.approx(jacobi_zeta(eta, m) + cn * dn / sn, abs=1e-8)
