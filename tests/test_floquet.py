import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyband import bloch_seed, floquet, susy1
from susyband.elliptic import jacobi_sncndn
from susyband.floquet import (
    band_edges,
    bloch_vectors,
    classify,
    classify_discriminant,
    discriminant,
    discriminants,
    growing_multiplier,
    multipliers_from_discriminant,
    propagate,
    transfer_matrices,
    transfer_matrix,
    write_discriminant_csv,
)
from susyband.potentials import (
    ConstantPotential,
    Potential,
    ShiftedPotential,
    TabulatedPotential,
    lame,
)

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
        self.even = base.even
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
    # a batch of 1 or 50 energies runs as sub-cells, over one period or less
    # (plus rounding: 0.4 + T lands an ulp past it, still one cell) and for a
    # potential without a period too: V is called on vectors only, each call
    # holds no abscissa twice, and the slope at the end of a step is reused,
    # so no two calls in a row repeat
    base = lame(2, 0.5)
    t = base.period
    assert (0.4 + t) - 0.4 > t
    assert floquet.cell_matrices(base, [0.4], 0.4, 0.4 + t).shape == (1, 1, 2, 2)
    counts = {"advance": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_advance", _counting(counts, "advance", floquet._advance))
        for es in ([0.4], np.linspace(-1.0, 7.0, 50)):
            for x0, x1, period in ((0.0, t, t), (t, 0.0, t), (0.4, 0.4 + t, t),
                                   (0.0, 0.5 * t, t), (0.0, 5 * t, None)):
                v = _Recording(base)
                v.period = period
                counts["advance"] = 0
                transfer_matrices(v, es, x0, x1)
                assert counts["advance"] == 1
                assert len(v.calls) > 2
                assert not [c for c in v.calls if np.isscalar(c)]
                assert all(np.unique(c).size == c.size for c in v.calls)
                assert all(not np.array_equal(a, b) for a, b in zip(v.calls, v.calls[1:]))


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


@pytest.mark.parametrize("n, m, energy", [(1, 0.95, -1.0), (3, 0.61, 0.3)])
def test_sampled_trace_off_origin(n, m, energy):
    # a trace from x0 != 0: the cells start at x0 + j (x1 - x0) / samples
    v = lame(n, m)
    half = 0.5 * v.period
    _, trace = propagate(v, energy, -half, half, samples=256)
    xs = np.linspace(-half, half, 257)
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
    # large |D| (deep below the spectrum) cancels in D/2 - sqrt(D^2/4 - 1)
    for d in [*rng.uniform(-6, 6, 64), 1e4, 8e6, -8e6, 1e8, -1e12]:
        bp, bm = multipliers_from_discriminant(float(d))
        assert bp * bm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("decaying", [False, True])
def test_bloch_vectors(decaying):
    v = lame(1, 0.5)
    ms = transfer_matrices(v, np.linspace(-3.0, 0.49, 3001), 0.0, v.period)
    grow = growing_multiplier(ms[:, 0, 0] + ms[:, 1, 1])
    beta = 1.0 / grow if decaying else grow
    vecs = bloch_vectors(ms, beta)
    # oriented: no sign flip between neighbouring energies
    assert np.all(np.sum(vecs[1:] * vecs[:-1], axis=1) > 0.0)
    residual = np.einsum("nij,nj->ni", ms, vecs) - beta[:, None] * vecs
    assert np.max(np.abs(residual)) / np.max(np.abs(ms)) < 1e-9
    assert np.array_equal(bloch_vectors(np.eye(2)[None], np.array([1.0])), [[1.0, 0.0]])


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


def lame_edges_tridiagonal(n, m):
    """The 2n+1 Lame band edges and their kinds, in the order p0, a0, a1, p1,
    p2, a2, ... of the oscillation theorem, from finite matrices.

    With N = n(n+1), -d^2 + N m sn^2 maps sn^p cn^b dn^e to
    [-p(p-1) sn^(p-2) + ((p+b)^2 + m(p+e)^2) sn^p + m(N - r(r+1)) sn^(p+2)] cn^b dn^e,
    r = p+b+e.  For each (a, b, e) in {0,1}^3 with n-a-b-e even and >= 0 the
    basis sn^(a+2k) cn^b dn^e closes on a tridiagonal matrix; its eigenvalues
    are periodic edges when a+b is even, antiperiodic ones otherwise.
    """
    found = {True: [], False: []}
    for a, b, e in itertools.product((0, 1), repeat=3):
        if a + b + e > n or (n - a - b - e) % 2:
            continue
        p = np.arange(a, n - b - e + 1, 2)
        r = p + b + e
        mat = np.diag((p + b) ** 2 + m * (p + e) ** 2.0)
        mat += np.diag(-p[1:] * (p[1:] - 1.0), 1)
        mat += np.diag(m * (n * (n + 1) - r[:-1] * (r[:-1] + 1.0)), -1)
        found[(a + b) % 2 == 0].extend(np.linalg.eigvals(mat).real)
    kinds = {True: "band_edge_periodic", False: "band_edge_antiperiodic"}
    per = sorted(found[True])
    edges, tags = [per[0]], [kinds[True]]
    for g in range(1, n + 1):
        edges.extend(sorted(found[g % 2 == 0])[g - 1 : g + 1])
        tags.extend([kinds[g % 2 == 0]] * 2)
    return edges, tags


@pytest.mark.parametrize("m", [0.05, 0.2, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tridiagonal_oracle_matches_closed_form(n, m):
    edges, _ = lame_edges_tridiagonal(n, m)
    assert np.max(np.abs(np.sort(edges) - lame_edges_closed_form(n, m))) < 1e-12


@pytest.mark.parametrize("m", [0.05, 0.1, 0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_band_edges_match_tridiagonal_oracle(n, m):
    # every narrow gap open, no touching point below the top edge, and the
    # edges in index order nondecreasing (the lowest band of (6, 0.99) is
    # 3e-15 wide)
    v = lame(n, m)
    bs = band_edges(v, *v.band_window)
    edges, kinds = lame_edges_tridiagonal(n, m)
    assert len(bs.edges) == 2 * n + 1
    assert list(bs.kinds) == kinds
    assert np.max(np.abs(np.array(bs.edges) - edges)) < 1e-9
    assert all(t > bs.edges[-1] for t in bs.touching)
    assert all(a <= b for a, b in zip(bs.edges, bs.edges[1:]))


@pytest.mark.parametrize("m", [0.05, 0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_edges_on_discriminant(n, m):
    # the integrator as an independent route: D = +2 at the periodic edges
    # and -2 at the antiperiodic ones, to EDGE_TOL
    v = lame(n, m)
    bs = band_edges(v, *v.band_window)
    target = np.where(np.array(bs.kinds) == "band_edge_periodic", 2.0, -2.0)
    assert np.max(np.abs(discriminants(v, bs.edges) - target)) <= floquet.EDGE_TOL


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_edges_of_bloch_partner(n, m):
    # the partner of a growing Bloch seed keeps D(E), so its edges are the
    # parent's; it is a spline table, and not even
    v = lame(n, m)
    partner = susy1(v, bloch_seed(v, -1.0)[0]).partner
    assert not partner.even
    bs = band_edges(partner, *v.band_window)
    edges, kinds = lame_edges_tridiagonal(n, m)
    assert list(bs.kinds) == kinds
    assert np.max(np.abs(np.array(bs.edges) - edges)) < 1e-9


def test_band_edges_closed_gaps_near_m_one():
    # lame(1, 0.9999): one open gap, the closed ones above 1 + m are
    # touching points, as for the free particle
    v = lame(1, 0.9999)
    bs = band_edges(v, *v.band_window)
    assert np.max(np.abs(np.array(bs.edges) - (0.9999, 1.0, 1.9999))) < 1e-9
    assert bs.touching and all(t > bs.edges[-1] for t in bs.touching)


def test_band_edges_rough_potential_raises():
    # a spline through a square wave: its Fourier coefficients fall like
    # k^-4, not geometrically, so Hill's method cannot resolve it
    x = np.linspace(0.0, 2.0, 65)
    v = TabulatedPotential(0.0, x[1] - x[0], np.where((x > 0.5) & (x < 1.5), 1.0, -1.0), 2.0)
    with pytest.raises(ValueError, match="Fourier series does not converge"):
        band_edges(v, -2.0, 20.0)
    assert classify(v, 30.0).tag in {"allowed_band", "gap"}


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


def _chained(v, es, points, rtol):
    m = np.eye(2)
    for a, b in zip(points[:-1], points[1:]):
        m = transfer_matrices(v, es, a, b, rtol=rtol) @ m
    return m


@pytest.mark.parametrize("n, m", [(1, 0.5), (2, 0.5), (3, 0.9)])
def test_long_span_matches_chained_periods(n, m):
    # a span over one period runs as a batch of one-period cells x energies;
    # below the spectrum the matrices grow by orders of magnitude per period
    v = lame(n, m)
    t = v.period
    es = np.linspace(-1.0, 0.0, 65)
    for x0, x1, points in (
        (-8 * t, 0.0, np.linspace(-8 * t, 0.0, 9)),
        (8 * t, 0.0, np.linspace(8 * t, 0.0, 9)),
        (0.0, 2.5 * t, [0.0, t, 2 * t, 2.5 * t]),
    ):
        long = transfer_matrices(v, es, x0, x1, rtol=1e-9)
        chained = _chained(v, es, points, 1e-13)
        err = np.max(np.abs(long - chained), axis=(1, 2)) / np.max(np.abs(chained), axis=(1, 2))
        assert np.max(err) < 3e-8


@pytest.mark.parametrize("size", [1, 50])
@pytest.mark.parametrize(
    "n, m, partner",
    [(n, m, False) for n in (1, 2, 3) for m in (0.1, 0.5, 0.9)] + [(2, 0.5, True)],
)
def test_small_batch_accuracy(n, m, partner, size):
    # a small batch runs as sub-cells of a period; D and the cells agree with
    # tight solves chained over 64 slices of each period, on Lame potentials
    # and on a tabulated Bloch partner
    v = lame(n, m)
    if partner:
        v = susy1(v, bloch_seed(v, -1.0)[0]).partner
    t = v.period
    es = np.linspace(-1.0, n * (n + 1) + 1.0, size) if size > 1 else np.array([0.7])
    chained = _chained(v, es, np.linspace(0.0, t, 65), 1e-13)
    want = chained[:, 0, 0] + chained[:, 1, 1]
    assert np.max(np.abs(discriminants(v, es) - want) / np.maximum(1.0, np.abs(want))) < 1e-9
    cells = floquet.cell_matrices(v, es, 0.0, t)
    scale = np.maximum(1.0, np.max(np.abs(chained), axis=(1, 2)))
    assert cells.shape == (1, size, 2, 2)
    assert np.max(np.max(np.abs(cells[0] - chained), axis=(1, 2)) / scale) < 1e-9
    if size == 1:
        # two periods at one energy: 2 x 16 sub-cells, still one cell per period
        cells = floquet.cell_matrices(v, es, 0.0, 2 * t)
        assert cells.shape == (2, 1, 2, 2)
        for j, cell in enumerate(cells):
            want = _chained(v, es, np.linspace(j * t, (j + 1) * t, 65), 1e-13)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(cell - want)) / scale < 1e-9


def test_long_span_pole_raises_first_in_x():
    # a cell is blamed only once the cells before it ran on their own, so
    # the error names the first pole in the direction of integration
    from susyband.errors import StiffIntegrationError

    class Poles(Potential):
        period = 1.0

        def __call__(self, x):
            return 1.0 / (x - 2.41) + 1.0 / (x - 5.00037)

    for x0, x1, where in ((0.0, 8.0, 2.41), (8.0, 0.0, 5.00037)):
        with pytest.raises(StiffIntegrationError) as err:
            transfer_matrices(Poles(), [0.0, 1.0], x0, x1)
        assert err.value.x == pytest.approx(where, abs=1e-3)


def test_long_span_work(monkeypatch, scenario_cache):
    # an 8-period span of fig3a's partner is one pass of 8 cells x 65 energies,
    # V called on vectors only, in at most twice the steps of one period
    run = scenario_cache("fig3a")
    partner, x = run.result.partner, run.result.x
    es = np.linspace(-0.05, 0.05, 65)
    counts = {"advance": 0}
    monkeypatch.setattr(floquet, "_advance", _counting(counts, "advance", floquet._advance))
    v = _Recording(partner)
    transfer_matrices(v, es, x[0], 0.0, rtol=1e-9)
    assert counts["advance"] == 1
    assert not [c for c in v.calls if np.isscalar(c)]
    one = _Recording(partner)
    floquet._cells(one, es, x[0], x[0] + partner.period, 1, 1e-9)
    assert all(np.isscalar(c) for c in one.calls)
    assert len(v.calls) - 1 <= 2 * (len(one.calls) - 1) / 5

    # a large batch over half a period is one cell with scalar V calls, the
    # one-cell pass bit for bit
    base = lame(3, 0.5)
    es = np.linspace(-0.5, 13.0, 800)
    v = _Recording(base)
    d = discriminants(v, es)
    assert all(np.isscalar(c) for c in v.calls)
    ms = floquet._cells(base, es, 0.0, 0.5 * base.period, 1, floquet.DEFAULT_RTOL)[0]
    assert np.array_equal(d, 2.0 * (ms[:, 0, 0] * ms[:, 1, 1] + ms[:, 0, 1] * ms[:, 1, 0]))

    # a small batch cuts each period into k sub-cells: 16, the cap, for two
    # periods at one energy, and 8 for one period at 50 (8 * 50 <= 512); V
    # is first called on the n k sub-cell starts.  Each returned cell is the
    # product of its own sub-cells
    t = base.period
    for es, n, k in (([0.4], 2, 16), (np.linspace(-1.0, 13.0, 50), 1, 8)):
        es = np.asarray(es, dtype=float)
        v = _Recording(base)
        cells = floquet.cell_matrices(v, es, 0.0, n * t)
        assert v.calls[0].size == n * k
        subs = floquet._cells(base, es, 0.0, n * t, n * k, floquet.DEFAULT_RTOL)
        assert cells.shape == (n, es.size, 2, 2)
        for j in range(n):
            product = np.broadcast_to(np.eye(2), (es.size, 2, 2))
            for sub in subs[j * k : (j + 1) * k]:
                product = sub @ product
            scale = np.max(np.abs(product), axis=(1, 2), keepdims=True)
            assert np.max(np.abs(cells[j] - product) / scale) < 1e-13


def test_band_edges_narrow_top_gap():
    # the top gap of lame(2, 0.1) is 7.9e-3 wide
    bs = band_edges(lame(2, 0.1), -0.5, 7.0)
    assert len(bs.edges) == 5
    for found, want in zip(bs.edges, lame_edges_closed_form(2, 0.1)):
        assert found == pytest.approx(want, abs=1e-6)


def _counting(counts, name, fn):
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_band_edges_work_count(monkeypatch):
    # the edges are matrix eigenvalues: nothing is integrated
    counts = {"batches": 0, "single": 0}
    monkeypatch.setattr(
        floquet, "transfer_matrices", _counting(counts, "batches", floquet.transfer_matrices)
    )
    monkeypatch.setattr(floquet, "propagate", _counting(counts, "single", floquet.propagate))
    bs = band_edges(lame(3, 0.5), -0.5, 13.0)
    assert len(bs.edges) == 7
    assert counts["batches"] == 0
    assert counts["single"] == 0


def test_shooting_work_count(monkeypatch, scenario_cache):
    # each mismatch evaluation is one cell_matrices call, one integrator pass
    # over the window's periods: a first scan of 65 energies, then at most 10
    # single energies; shooting builds no transfer matrix
    from susyband import analysis

    run = scenario_cache("fig3a")
    counts = {"advance": 0, "batches": 0, "single": 0}
    sizes = []
    cell_matrices = floquet.cell_matrices

    def recording(v, energies, *args, **kwargs):
        sizes.append(np.size(energies))
        return cell_matrices(v, energies, *args, **kwargs)

    monkeypatch.setattr(floquet, "cell_matrices", recording)
    monkeypatch.setattr(floquet, "_advance", _counting(counts, "advance", floquet._advance))
    monkeypatch.setattr(
        floquet, "transfer_matrices", _counting(counts, "batches", floquet.transfer_matrices)
    )
    monkeypatch.setattr(
        floquet, "transfer_matrix", _counting(counts, "single", floquet.transfer_matrix)
    )
    x = run.result.x
    for e_lo, e_hi in ((-0.05, 0.05), (-0.5, 0.45)):
        sizes.clear()
        counts["advance"] = 0
        found = analysis.shooting_eigenvalue(
            run.result.partner, e_lo, e_hi, x_lo=x[0], x_hi=x[-1]
        )
        assert found == pytest.approx(0.0, abs=1e-3)
        assert sizes[0] == 65
        assert 1 < len(sizes) <= 1 + 10
        assert set(sizes[1:]) == {1}
        assert counts["advance"] == len(sizes)
    assert counts["batches"] == 0
    assert counts["single"] == 0


def test_cell_matrices_are_the_periods_of_the_span():
    # cell j of a span is the one-period matrix from x0 + j T, and
    # transfer_matrices is their product; a span of one period is one cell
    v = lame(2, 0.5)
    t = v.period
    es = np.linspace(-1.0, 3.0, 7)
    counts = {"advance": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "_advance", _counting(counts, "advance", floquet._advance))
        cells = floquet.cell_matrices(v, es, -t, 2 * t, rtol=1e-12)
    assert counts["advance"] == 1
    assert cells.shape == (3, 7, 2, 2)
    for j, cell in enumerate(cells):
        one = transfer_matrices(v, es, (j - 1) * t, j * t, rtol=1e-12)
        assert np.max(np.abs(cell - one)) <= 1e-9 * np.max(np.abs(one))
    product = cells[2] @ cells[1] @ cells[0]
    whole = transfer_matrices(v, es, -t, 2 * t, rtol=1e-12)
    assert np.max(np.abs(whole - product)) <= 1e-12 * np.max(np.abs(product))
    assert floquet.cell_matrices(v, es, 0.0, t).shape == (1, 7, 2, 2)
    assert floquet.cell_matrices(v, [], 0.0, -3 * t).shape == (3, 0, 2, 2)


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


def _row_discriminant_csv(energies, ds):
    # reference: the per-row f-string writer, as a list of lines, given D(E)
    lines = ["E,D,class_tag\n"]
    for e, d in zip(energies, ds):
        tag = classify_discriminant(float(d)).tag
        lines.append(f"{e:.12g},{d:.12g},{tag}\n")
    return lines


def test_discriminant_csv_matches_row_writer(monkeypatch):
    energies = np.linspace(0.1, 2.0, 5)
    buf = io.StringIO()
    write_discriminant_csv(buf, FREE, energies)
    expected = _row_discriminant_csv(energies, discriminants(FREE, energies))
    assert buf.getvalue().splitlines(keepends=True) == expected
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e-300, 1.0 / 3.0]
    energies = np.array(special + [2.0, -2.0, 1.5, 2.5])
    ds = np.roll(energies, 3)
    monkeypatch.setattr(floquet, "discriminants", lambda v, es: ds.copy())
    buf = io.StringIO()
    write_discriminant_csv(buf, FREE, energies)
    assert buf.getvalue().splitlines(keepends=True) == _row_discriminant_csv(energies, ds)
