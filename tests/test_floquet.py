import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyband.elliptic import jacobi_sncndn
from susyband.floquet import (
    band_edges,
    classify,
    classify_discriminant,
    discriminant,
    discriminants,
    ksection,
    multipliers_from_discriminant,
    propagate,
    transfer_matrices,
    transfer_matrix,
    write_discriminant_csv,
)
from susyband.potentials import ConstantPotential, Potential, ShiftedPotential, lame

FREE = ConstantPotential(0.0, period=2.0)


def free_matrix(energy, length):
    if energy > 0:
        k = math.sqrt(energy)
        return np.array(
            [
                [math.cos(k * length), math.sin(k * length) / k],
                [-k * math.sin(k * length), math.cos(k * length)],
            ]
        )
    if energy == 0:
        return np.array([[1.0, length], [0.0, 1.0]])
    k = math.sqrt(-energy)
    return np.array(
        [
            [math.cosh(k * length), math.sinh(k * length) / k],
            [k * math.sinh(k * length), math.cosh(k * length)],
        ]
    )


def test_free_particle_closed_form():
    for energy in (-3.0, 0.0, 0.5, 4.0, 17.3):
        tm = transfer_matrix(FREE, energy, 0.0, 2.0)
        exact = free_matrix(energy, 2.0)
        scale = max(1.0, float(np.max(np.abs(exact))))  # growing modes: relative
        assert np.max(np.abs(tm.matrix - exact)) / scale < 1e-9
        assert tm.det == pytest.approx(1.0, abs=1e-9)


def test_free_particle_discriminant_sweep():
    es = np.linspace(0.01, 25.0, 100)
    ds = discriminants(FREE, es)
    exact = 2.0 * np.cos(np.sqrt(es) * 2.0)
    assert np.max(np.abs(ds - exact)) < 1e-8


def lame1_edge_oracle():
    """Substitution oracle: dn, cn, sn solve -u'' + 2 m sn^2 u = eps u at
    eps = m, 1, 1+m.  Closed-form second derivatives via the standard
    differentiation rules; residuals must vanish to rounding."""
    m = 0.5
    xs = np.linspace(-3.0, 7.0, 257)
    sn, cn, dn = jacobi_sncndn(xs, m)
    v = 2.0 * m * sn * sn
    cases = {
        m: (dn, -m * dn * (cn * cn - sn * sn)),
        1.0: (cn, -cn * (dn * dn - m * sn * sn)),
        1.0 + m: (sn, -sn * (dn * dn + m * cn * cn)),
    }
    out = {}
    for eps, (u, upp) in cases.items():
        out[eps] = np.max(np.abs(-upp + v * u - eps * u))
    return out


def test_lame1_edge_substitution_oracle():
    residuals = lame1_edge_oracle()
    for eps, res in residuals.items():
        assert res < 1e-13, (eps, res)


def test_lame1_discriminant_at_derived_edges():
    v = lame(1, 0.5)
    assert discriminant(v, 0.5) == pytest.approx(2.0, abs=1e-8)
    assert discriminant(v, 1.0) == pytest.approx(-2.0, abs=1e-8)
    assert discriminant(v, 1.5) == pytest.approx(-2.0, abs=1e-8)
    assert abs(discriminant(v, 0.75)) < 2.0


def test_determinant_and_composition():
    v = lame(2, 0.5)
    period = v.period
    for energy in (-1.0, 0.7, 2.2, 6.5):
        whole = transfer_matrix(v, energy, 0.0, period)
        first = transfer_matrix(v, energy, 0.0, period / 2)
        second = transfer_matrix(v, energy, period / 2, period)
        assert whole.det == pytest.approx(1.0, abs=1e-9)
        composed = second.matrix @ first.matrix
        assert np.max(np.abs(composed - whole.matrix)) < 1e-8
        both = second @ first
        assert both.x0 == 0.0 and both.x1 == period


def test_propagate_interval_validation():
    with pytest.raises(ValueError):
        propagate(FREE, 1.0, 2.0, 1.0)


def test_stiff_region_reported_with_location():
    from susyband.errors import StiffIntegrationError
    from susyband.potentials import Potential

    class Broken(Potential):
        period = 2.0

        def __call__(self, x):
            # a non-evaluable patch forces the step controller to collapse
            if np.isscalar(x):
                return math.nan if 0.9 < x < 1.1 else 0.0
            return np.where((x > 0.9) & (x < 1.1), math.nan, 0.0)

    with pytest.raises(StiffIntegrationError) as err:
        transfer_matrix(Broken(), 1.0, 0.0, 2.0)
    assert 0.5 < err.value.x < 1.2


def test_propagate_trace_columns():
    v = lame(1, 0.5)
    tm, trace = propagate(v, 0.8, 0.0, v.period, samples=64)
    assert trace.shape == (65, 2, 2)
    assert np.max(np.abs(trace[-1] - tm.matrix)) < 1e-12
    assert np.max(np.abs(trace[0] - np.eye(2))) == 0.0
    # any initial data propagates through the recorded canonical columns
    init = np.array([0.3, -1.1])
    direct = transfer_matrix(v, 0.8, 0.0, v.period / 2).matrix @ init
    assert np.max(np.abs(trace[32] @ init - direct)) < 1e-8


@pytest.mark.parametrize("samples", [16, 256, 2048])
@pytest.mark.parametrize("n, m, energy", [(1, 0.5, 0.8), (3, 0.95, 2.0)])
def test_sampled_trace_matches_chained_transfer_matrices(n, m, energy, samples):
    # the cell-parallel pass against one adaptive solve per interval; at 16
    # samples the cells are too wide for one step and share several
    v = lame(n, m)
    _, trace = propagate(v, energy, 0.0, v.period, samples=samples)
    xs = np.linspace(0.0, v.period, samples + 1)
    chained = [np.eye(2)]
    for a, b in zip(xs[:-1], xs[1:]):
        chained.append(transfer_matrix(v, energy, a, b).matrix @ chained[-1])
    chained = np.array(chained)
    assert np.max(np.abs(trace - chained)) / max(1.0, np.max(np.abs(chained))) < 1e-9


class _Recording(Potential):
    """Wraps a potential and records every call: a scalar x, or an array."""

    def __init__(self, base):
        self.base = base
        self.period = base.period
        self.calls = []

    def __call__(self, x):
        self.calls.append(x if np.isscalar(x) else np.array(x))
        return self.base(x)


def test_sampled_propagation_calls_v_on_vectors():
    v = _Recording(lame(2, 0.5))
    propagate(v, 0.4, 0.0, v.period, samples=2048)
    assert not [x for x in v.calls if np.isscalar(x)]
    assert 1 <= len(v.calls) <= 3
    # a cell of the 16-sample grid needs several steps, which all cells share
    v = _Recording(lame(2, 0.5))
    propagate(v, 0.4, 0.0, v.period, samples=16)
    assert not [x for x in v.calls if np.isscalar(x)]
    assert len(v.calls) > 1


def test_advance_evaluates_each_point_once():
    v = _Recording(lame(2, 0.5))
    transfer_matrix(v, 0.4, 0.0, v.period)
    xs = [float(x) for x in v.calls]
    assert len(xs) == len(v.calls) > 6
    assert all(a != b for a, b in zip(xs, xs[1:]))


def test_sampled_propagation_pole_raises():
    # poles inside cells, and patches where V is NaN: the shared step
    # shrinks there down to the step floor, never accepted.  With two
    # failures the error names the first in x, wherever the larger error
    # ratio sits
    from susyband.errors import StiffIntegrationError

    class Poles(Potential):
        period = 2.0

        def __init__(self, *at):
            self.at = at

        def __call__(self, x):
            return sum(1.0 / (x - a) for a in self.at)

    class NanPatches(Potential):
        period = 2.0

        def __init__(self, *spans):
            self.spans = spans

        def __call__(self, x):
            nan = np.zeros(np.shape(x), dtype=bool)
            for lo, hi in self.spans:
                nan |= (x > lo) & (x < hi)
            return np.where(nan, math.nan, 0.0)

    for v, where in (
        (Poles(1.00037), 1.00037),
        (NanPatches((0.9, 1.1)), 0.9),
        (Poles(1.00037, 0.41), 0.41),
        (NanPatches((0.3, 0.31), (0.9, 1.1)), 0.3),
    ):
        for samples in (16, 2048):
            with pytest.raises(StiffIntegrationError) as err:
                propagate(v, 1.0, 0.0, 2.0, samples=samples)
            assert err.value.x == pytest.approx(where, abs=1e-3)


@pytest.mark.parametrize("samples", [256, 2048])
@pytest.mark.parametrize("n, m, energy", [(1, 0.95, -1.0), (3, 0.95, -1.0), (3, 0.61, 0.3)])
def test_sampled_trace_accuracy(n, m, energy, samples):
    # every cell's error test reads its own matrix from the identity, so the
    # trace keeps the tolerance even where the trajectory grows large
    v = lame(n, m)
    _, trace = propagate(v, energy, 0.0, v.period, samples=samples)
    xs = np.linspace(0.0, v.period, samples + 1)
    chained = [np.eye(2)]
    for a, b in zip(xs[:-1], xs[1:]):
        chained.append(transfer_matrices(v, [energy], a, b, rtol=1e-13)[0] @ chained[-1])
    chained = np.array(chained)
    err = np.max(np.abs(trace - chained), axis=(1, 2)) / np.max(np.abs(chained), axis=(1, 2))
    assert np.max(err) < 5e-11


def test_sampled_propagation_work():
    # at 2048 samples every cell takes one step: V at the cell starts, then
    # at the five stage abscissae of all cells
    v = _Recording(lame(2, 0.5))
    propagate(v, 0.4, 0.0, v.period, samples=2048)
    assert len(v.calls) == 2


@pytest.mark.parametrize(
    "v", [lame(1, 0.5), lame(2, 0.3), lame(3, 0.9), ConstantPotential(1.5, period=2.0)]
)
def test_transfer_matrix_is_a_batch_of_one(v):
    for e in (-0.7, 0.4, 2.3, 9.0):
        batch = transfer_matrices(v, [e], 0.0, v.period)[0]
        assert np.array_equal(transfer_matrix(v, e, 0.0, v.period).matrix, batch)
        assert np.array_equal(propagate(v, e, 0.0, v.period)[0].matrix, batch)


def test_batched_matches_scalar():
    v = lame(2, 0.5)
    es = np.array([-0.5, 1.3, 4.2])
    ms = transfer_matrices(v, es, 0.0, v.period)
    for i, e in enumerate(es):
        tm = transfer_matrix(v, e, 0.0, v.period)
        scale = max(1.0, float(np.max(np.abs(tm.matrix))))
        assert np.max(np.abs(ms[i] - tm.matrix)) / scale < 1e-9


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.floats(0.05, 0.95),
    shift=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    where=st.floats(0.0, 1.0),
)
def test_discriminant_invariant_under_shift(n, m, shift, where):
    # the Lame potential takes the half-period path, its shifted copy (not
    # even) the full period; D is the same for every shift
    v = lame(n, m)
    lo, hi = v.band_window
    energy = lo + where * (hi - lo)
    d = discriminants(v, [energy])[0]
    d_shifted = discriminants(ShiftedPotential(v, shift * v.period), [energy])[0]
    assert abs(d - d_shifted) <= 1e-8 * max(1.0, abs(d))


class _Offset(Potential):
    """V + c on a base potential; not marked even, so D integrates a full period."""

    def __init__(self, base, c):
        self.base, self.c, self.period = base, c, base.period

    def __call__(self, x):
        return self.base(x) + self.c


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    c=st.floats(-3.0, 3.0),
)
def test_discriminant_follows_constant_offset(n, m, c):
    # -psi'' + (V + c) psi = (E + c) psi is the equation of V at E, so
    # D_{V+c}(E + c) = D_V(E); the Lame side integrates half a period
    v = lame(n, m)
    es = np.linspace(*v.band_window, 16)
    d = discriminants(v, es)
    d_offset = discriminants(_Offset(v, c), es + c)
    assert np.all(np.abs(d_offset - d) <= 1e-8 * np.maximum(1.0, np.abs(d)))


def test_even_potential_integrates_half_period(monkeypatch):
    from susyband import floquet

    spans = []

    def recording(v, energies, x0, x1, **kwargs):
        spans.append((x0, x1))
        return transfer_matrices(v, energies, x0, x1, **kwargs)

    monkeypatch.setattr(floquet, "transfer_matrices", recording)
    v = lame(3, 0.5)
    shifted = ShiftedPotential(v, 0.3)
    es = np.linspace(-0.5, 13.0, 7)
    half = discriminants(v, es)
    assert spans == [(0.0, 0.5 * v.period)]
    full = discriminants(shifted, es)
    assert spans[1:] == [(0.0, v.period)]
    assert np.max(np.abs(half - full) / np.maximum(1.0, np.abs(full))) < 1e-9
    # one value per energy, whichever entry point asks
    for pot in (v, shifted):
        for e in es[:3]:
            assert discriminant(pot, e) == discriminants(pot, [e])[0]


def test_classify_trichotomy():
    ec = classify_discriminant(0.0)
    assert ec.tag == "allowed_band"
    assert ec.multipliers[0] == pytest.approx(1j)
    assert abs(ec.multipliers[0]) == pytest.approx(1.0, abs=1e-12)

    ec = classify_discriminant(2.0)
    assert ec.tag == "band_edge_periodic"
    assert ec.multipliers == (1.0, 1.0)

    ec = classify_discriminant(-2.0)
    assert ec.tag == "band_edge_antiperiodic"

    ec = classify_discriminant(3.0)
    assert ec.tag == "gap"
    golden = (3.0 + math.sqrt(5.0)) / 2.0
    assert ec.multipliers[0] == pytest.approx(golden, abs=1e-12)
    assert ec.multipliers[0] * ec.multipliers[1] == pytest.approx(1.0, abs=1e-9)


def test_classify_on_potential():
    v = lame(1, 0.5)
    assert classify(v, 0.75).tag == "allowed_band"
    assert classify(v, 1.2).tag == "gap"
    b_plus, b_minus = classify(v, 1.2).multipliers
    assert b_plus * b_minus == pytest.approx(1.0, abs=1e-9)


def test_multiplier_product_random():
    rng = np.random.default_rng(2)
    for d in rng.uniform(-6, 6, 64):
        bp, bm = multipliers_from_discriminant(float(d))
        assert bp * bm == pytest.approx(1.0, abs=1e-9)


def test_band_edges_lame1():
    bs = band_edges(lame(1, 0.5), 0.0, 3.0)
    assert len(bs.edges) == 3
    for found, exact in zip(bs.edges, (0.5, 1.0, 1.5)):
        assert found == pytest.approx(exact, abs=1e-6)
    assert bs.kinds == (
        "band_edge_periodic",
        "band_edge_antiperiodic",
        "band_edge_antiperiodic",
    )
    assert bs.gaps == ((bs.edges[1], bs.edges[2]),)
    assert bs.bands[0] == (bs.edges[0], bs.edges[1])


def test_band_edges_counts(lame_bands):
    assert len(lame_bands(2).edges) == 5
    assert len(lame_bands(3).edges) == 7


def lame_edges_closed_form(n, m):
    """The 2n+1 Lame band edges as eigenvalues of the Lame-polynomial
    problems (Arscott, Periodic Differential Equations, 1964)."""
    if n == 1:
        edges = [m, 1.0, 1.0 + m]
    elif n == 2:
        r = 2.0 * math.sqrt(1.0 - m + m * m)
        edges = [2.0 * (1.0 + m) - r, 1.0 + m, 1.0 + 4.0 * m, 4.0 + m, 2.0 * (1.0 + m) + r]
    else:
        a = 2.0 * math.sqrt(1.0 - m + 4.0 * m * m)
        b = 2.0 * math.sqrt(4.0 - m + m * m)
        c = 2.0 * math.sqrt(4.0 - 7.0 * m + 4.0 * m * m)
        edges = [2.0 + 5.0 * m - a, 2.0 + 5.0 * m + a, 5.0 + 2.0 * m - b,
                 5.0 + 2.0 * m + b, 5.0 + 5.0 * m - c, 5.0 + 5.0 * m + c, 4.0 + 4.0 * m]
    return sorted(edges)


@pytest.mark.parametrize("m", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lame_edges_closed_form(lame_bands, n, m):
    bs = lame_bands(n, m)
    exact = lame_edges_closed_form(n, m)
    assert len(bs.edges) == len(exact)
    tol = 1e-8 if m == 0.5 else 1e-6
    for found, want in zip(bs.edges, exact):
        assert found == pytest.approx(want, abs=tol)


def test_transfer_matrices_backward_is_inverse():
    # either direction is allowed; b(x0 <- x1) undoes b(x1 <- x0)
    v = lame(2, 0.5)
    es = np.array([-1.0, 0.7, 2.2, 6.5])
    x0, x1 = -0.3, v.period - 0.3
    forward = transfer_matrices(v, es, x0, x1)
    backward = transfer_matrices(v, es, x1, x0)
    for f, b in zip(forward, backward):
        inverse = np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]])
        scale = max(1.0, float(np.max(np.abs(f))))
        assert np.max(np.abs(b - inverse)) / scale < 1e-9
        assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-9)


def test_band_edges_root_pair_inside_scan_cells():
    # the 7.9e-3 wide top gap of lame(2, 0.1) fits inside one 0.02 scan
    # cell: no sign change on the scan, only an extremum of D beyond +2
    bs = band_edges(lame(2, 0.1), -0.5, 7.0, scan_per_unit=50.0)
    assert len(bs.edges) == 5
    for found, want in zip(bs.edges, lame_edges_closed_form(2, 0.1)):
        assert found == pytest.approx(want, abs=1e-6)


def _counting(counts, name, fn):
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_band_edges_work_count(monkeypatch):
    # every D evaluation goes through the batched path: one scan, at most
    # three extremum sweeps and seven k-section sweeps
    from susyband import floquet

    counts = {"batches": 0, "single": 0}
    monkeypatch.setattr(
        floquet, "transfer_matrices", _counting(counts, "batches", floquet.transfer_matrices)
    )
    monkeypatch.setattr(floquet, "propagate", _counting(counts, "single", floquet.propagate))
    bs = band_edges(lame(3, 0.5), -0.5, 13.0)
    assert len(bs.edges) == 7
    assert counts["batches"] <= 12
    assert counts["single"] == 0


def test_shooting_work_count(monkeypatch, scenario_cache):
    # every sweep is four transfer_matrices batches (two far-field periods,
    # two legs to the matching point); no energy is propagated on its own
    from susyband import analysis, floquet

    run = scenario_cache("fig3a")
    counts = {"batches": 0, "advance": 0, "single": 0}
    monkeypatch.setattr(
        floquet, "transfer_matrices", _counting(counts, "batches", floquet.transfer_matrices)
    )
    monkeypatch.setattr(floquet, "_advance", _counting(counts, "advance", floquet._advance))
    monkeypatch.setattr(
        floquet, "transfer_matrix", _counting(counts, "single", floquet.transfer_matrix)
    )
    x = run.result.x
    found = analysis.shooting_eigenvalue(run.result.partner, -0.05, 0.05, x_lo=x[0], x_hi=x[-1])
    assert found == pytest.approx(0.0, abs=1e-3)
    assert counts["batches"] <= 4 * math.ceil(48 / 6)
    assert counts["single"] == 0
    # one integrator pass per batch, none called from analysis directly
    assert counts["advance"] == counts["batches"]


def test_ksection_keeps_sign_at_lo():
    # the root sits on a section point, and within 1e-13 of it the sign of g
    # alternates from call to call: a sweep that evaluated a bracket end
    # again could see the bracket vanish
    calls = []

    def g(e):
        calls.append(e.ravel().copy())
        return e - 0.5 + 1e-13 * (-1) ** len(calls)

    found = ksection(g, [0.0], [1.0], [-1.0], sweeps=6)
    assert abs(found[0] - 0.5) <= 2.0**-36
    assert all(c.size == 63 for c in calls)
    evaluated = np.concatenate(calls)
    assert np.unique(evaluated).size == evaluated.size
    assert not np.isin([0.0, 1.0], evaluated).any()


def test_ksection_stops_at_width():
    calls = []

    def g(e):
        calls.append(e)
        return e - 0.3

    found = ksection(g, [0.0], [1.0], [-1.0], sweeps=8, width=1e-6)
    assert len(calls) == 4  # 64**-3 > 1e-6 > 64**-4
    assert found[0] == pytest.approx(0.3, abs=64.0**-4)


def test_band_edge_interlacing(lame_bands):
    for n in (2, 3):
        bs = lame_bands(n)
        edges = bs.edges
        assert all(a < b for a, b in zip(edges, edges[1:]))
        # kind pattern p, a, a, p, p, a, a, ...
        expected = ["band_edge_periodic"]
        flavor = "band_edge_antiperiodic"
        while len(expected) < len(edges):
            expected.extend([flavor, flavor])
            flavor = (
                "band_edge_periodic"
                if flavor == "band_edge_antiperiodic"
                else "band_edge_antiperiodic"
            )
        assert list(bs.kinds) == expected[: len(edges)]


def test_free_particle_touching_bands():
    bs = band_edges(FREE, -0.5, 26.0)
    assert [round(e, 9) for e in bs.edges] == [0.0]
    expected = [(math.pi * k / 2.0) ** 2 for k in (1, 2, 3)]
    assert len(bs.touching) == 3
    for found, exact in zip(bs.touching, expected):
        assert found == pytest.approx(exact, abs=1e-5)


def test_gap_index(lame_bands):
    bs = lame_bands(2)
    assert bs.gap_index(0.4) == 0  # below the spectrum
    assert bs.gap_index(1.6) == 1
    assert bs.gap_index(4.6) == 2
    assert bs.gap_index(2.0) in (1,)  # still first gap
    assert bs.gap_index(1.3) is None  # inside the first band


def test_discriminant_decreases_through_first_edge():
    v = lame(1, 0.5)
    es = np.linspace(0.4, 0.6, 9)
    ds = discriminants(v, es)
    assert np.all(np.diff(ds) < 0.0)


def test_discriminant_csv_format():
    buf = io.StringIO()
    write_discriminant_csv(buf, FREE, np.linspace(0.1, 2.0, 5))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "E,D,class_tag"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert first[2] in {"allowed_band", "gap", "band_edge_periodic", "band_edge_antiperiodic"}
