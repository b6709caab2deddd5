import json

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from susyband.elliptic import complete_k
from susyband.potentials import (
    ConstantPotential,
    LamePotential,
    Potential,
    ShiftedPotential,
    TabulatedPotential,
    lame,
    potential_from_dict,
    potential_from_json,
)


def test_lame_values():
    v = lame(1, 0.5)
    assert v(0.0) == pytest.approx(0.0, abs=1e-14)
    assert v(complete_k(0.5)) == pytest.approx(1.0, abs=1e-12)
    assert v.period == pytest.approx(2.0 * complete_k(0.5))


def test_lame_amplitude_n3():
    v = lame(3, 0.5)
    xs = np.linspace(0.0, v.period, 4097)
    assert np.max(v(xs)) == pytest.approx(6.0, abs=1e-8)


def test_lame_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lame(0, 0.5)
    with pytest.raises(ValueError):
        lame(-1, 0.5)
    with pytest.raises(ValueError):
        lame(2, 0.0)
    with pytest.raises(ValueError):
        lame(2, 1.0)


def test_periodicity_property():
    rng = np.random.default_rng(5)
    for v in (lame(1, 0.5), lame(2, 0.3), ConstantPotential(1.5, 2.0)):
        xs = rng.uniform(-20, 20, 256)
        assert np.max(np.abs(v(xs + v.period) - v(xs))) < 1e-10


def test_shifted_basics():
    v = lame(1, 0.5)
    half = v.period / 2
    w = ShiftedPotential(v, half)
    assert w(0.0) == pytest.approx(v(half), abs=1e-14)
    assert w(0.0) == pytest.approx(1.0, abs=1e-12)
    assert w.period == v.period


def test_shift_composition_flattens():
    v = lame(1, 0.5)
    w = ShiftedPotential(ShiftedPotential(v, 0.4), 0.25)
    assert isinstance(w.base, LamePotential)
    assert w.delta == pytest.approx(0.65)
    xs = np.linspace(-5, 5, 101)
    assert np.max(np.abs(w(xs) - v(xs + 0.65))) < 1e-12


def test_tabulated_roundtrip_off_grid():
    # cubic Hermite on wrapped sixth-order slopes: 1.0e-12 and 1.7e-11 measured
    rng = np.random.default_rng(9)
    xs = rng.uniform(-30.0, 30.0, 512)  # also exercises the periodic wrap
    for v, bound in ((lame(2, 0.5), 1e-8), (lame(3, 0.9), 5e-11)):
        tab = TabulatedPotential.from_function(v, 0.0, v.period, v.period, 2048)
        assert np.max(np.abs(tab(xs) - v(xs))) < bound


def test_tailed_table_matches_not_a_knot_spline():
    # cubic Hermite on sixth-order slopes agrees with scipy's spline to 1e-12
    # (2.2e-13 measured), except in the three end cells, whose end samples
    # have second-order one-sided slopes (3.1e-11 measured)
    v = lame(2, 0.5)
    period = v.period
    tab = TabulatedPotential.from_function(v, -8 * period, 8 * period, period, 2048,
                                           tail=ConstantPotential(0.0, period))
    spline = CubicSpline(tab.x_lo + tab.dx * np.arange(tab.values.size), tab.values)
    x = np.linspace(tab.x_lo, tab.x_hi, 16 * 2048 * 3 + 1)
    gap = np.abs(tab(x) - spline(x))
    ends = (x < tab.x_lo + 3 * tab.dx) | (x > tab.x_hi - 3 * tab.dx)
    assert np.max(gap[~ends]) < 1e-12
    assert np.max(gap[ends]) < 1e-8


def test_tailed_table_hits_its_samples():
    # dx is linspace's own step, so over 16 periods the table matches its
    # samples to 1e-13 (1.8e-14 measured) and ends on the last one; xs[1] -
    # xs[0] as dx drifts 5.5e-11 in x and misses them by 1.4e-10
    v = lame(2, 0.5)
    period = v.period
    x = np.linspace(-8 * period, 8 * period, 16 * 2048 + 1)
    tab = TabulatedPotential.from_function(v, x[0], x[-1], period, 2048,
                                           tail=ConstantPotential(0.0, period))
    assert tab.x_hi == x[-1]
    assert np.max(np.abs(tab(x) - v(x))) < 1e-13


def test_tabulated_tail_contract():
    v = lame(1, 0.5)
    period = v.period
    tail = ConstantPotential(7.0, period)
    xs_win = np.linspace(-2 * period, 2 * period, 4 * 256 + 1)
    tab = TabulatedPotential(xs_win[0], xs_win[1] - xs_win[0], v(xs_win), period, tail=tail)
    x_far = tab.x_hi + 10 * period
    assert tab(x_far) == 7.0
    assert tab(tab.x_lo - 3.3) == 7.0
    # inside the window the samples rule
    assert tab(0.5) == pytest.approx(v(0.5), abs=1e-10)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPotential(0.0, 0.1, np.zeros(4), 1.0)  # too few samples
    with pytest.raises(ValueError):
        # window not an integer number of periods and no tail
        TabulatedPotential(0.0, 0.1, np.zeros(16), 1.07)
    with pytest.raises(ValueError):
        # periodic table that does not close
        TabulatedPotential(0.0, 1.0 / 16, np.linspace(0, 1, 17), 1.0)
    # a non-finite sample or grid number is named, not left to fail later
    closed = np.cos(np.linspace(0.0, 2.0 * np.pi, 17))
    for args, name in (
        ((0.0, 1.0 / 16, np.where(np.arange(17) == 5, np.nan, closed), 1.0), "values"),
        ((0.0, 1.0 / 16, np.where(np.arange(17) == 16, np.inf, closed), 1.0), "values"),
        ((np.nan, 1.0 / 16, closed, 1.0), "x_lo"),
        ((0.0, np.nan, closed, 1.0), "dx"),
        ((0.0, np.inf, closed, 1.0), "dx"),
        ((0.0, 1.0 / 16, closed, np.nan), "period"),
        ((0.0, 1.0 / 16, closed, np.inf), "period"),
    ):
        with pytest.raises(ValueError, match=f"finite {name}"):
            TabulatedPotential(*args)
    flat = ConstantPotential(0.0, 2.0)
    with pytest.raises(ValueError, match="finite values"):
        TabulatedPotential(-1.0, 0.125, [0.0] * 8 + [np.nan] * 9, 2.0, tail=flat)


def test_json_round_trip():
    v = lame(2, 0.25)
    tab = TabulatedPotential.from_function(
        v, 0.0, v.period, v.period, 64, tail=None
    )
    shifted = ShiftedPotential(v, 0.3)
    windowed = TabulatedPotential(
        -1.0, 0.125, np.cos(np.linspace(-1, 1, 17)), 2.0, tail=ConstantPotential(0.0, 2.0)
    )
    for spec in (v, ConstantPotential(2.0, 3.0), tab, shifted, windowed):
        doc = json.loads(spec.to_json())
        clone = potential_from_dict(doc)
        xs = np.linspace(-4.0, 4.0, 64)
        assert np.max(np.abs(clone(xs) - spec(xs))) < 1e-12
    assert potential_from_json(v.to_json())(0.7) == pytest.approx(v(0.7))


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        potential_from_dict({"kind": "mystery"})


def test_even_flag_holds_where_set():
    # floquet.discriminants integrates half a period when ``even`` is set,
    # so every class that sets it must be even at every x, scalar or array
    examples = {
        LamePotential: [lame(1, 0.5), lame(2, 0.05), lame(3, 0.97)],
        ConstantPotential: [ConstantPotential(-1.5, 2.0)],
    }
    rng = np.random.default_rng(7)
    xs = rng.uniform(-40.0, 40.0, 257)
    even_classes = [cls for cls in Potential.__subclasses__() if cls.even]
    assert set(even_classes) == set(examples)
    for cls in even_classes:
        for v in examples[cls]:
            assert np.array_equal(v(-xs), v(xs))
            assert all(v(-float(x)) == v(float(x)) for x in xs[:32])
    v = lame(2, 0.5)
    tab = TabulatedPotential.from_function(v, 0.0, v.period, v.period, 64)
    assert not tab.even
    assert not ShiftedPotential(v, 0.0).even
    assert not Potential.even
