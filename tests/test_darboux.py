import dataclasses
import io
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyband.darboux import (
    apply_intertwiner,
    factorization_residual,
    susy1,
    susy2,
    write_transform_csv,
)
from susyband.errors import (
    ConfluentTransformError,
    SeedConsistencyError,
    SingularTransformError,
)
from susyband.floquet import discriminants
from susyband.numdiff import derivative
from susyband.potentials import ConstantPotential, lame
from susyband.seeds import bloch_seed, general_seed

FREE = ConstantPotential(0.0, period=2.0)
LAME1 = lame(1, 0.5)
LAME2 = lame(2, 0.5)


@pytest.fixture(scope="module")
def soliton():
    seed = general_seed(FREE, -1.0, 0.5, 0.5)  # u = cosh x
    return susy1(FREE, seed)


def test_free_particle_soliton_partner(soliton):
    exact = -2.0 / np.cosh(soliton.x) ** 2
    assert np.max(np.abs(soliton.partner_values - exact)) < 1e-9


def test_soliton_kernel_state(soliton):
    state = soliton.kernel[0]
    assert state.normalizable
    sech = 1.0 / np.cosh(soliton.x)
    assert np.max(np.abs(state.psi - sech / np.max(sech))) < 1e-9
    assert state.decay_rate == pytest.approx(1.0, rel=1e-3)
    assert state.expected_decay_rate == pytest.approx(1.0, rel=1e-9)


def test_fig1a_half_period_displacement(scenario_cache):
    run = scenario_cache("fig1a")
    v = run.potential
    shift = v.period / 2
    assert np.max(np.abs(run.result.partner_values - v(run.result.x + shift))) < 1e-10
    assert run.result.periodic
    state = run.result.kernel[0]
    assert not state.normalizable  # 1/psi_0 is bounded, not square integrable


def test_tailed_partner_hits_its_samples(scenario_cache):
    # the window table of a general partner ends on the window's last sample
    # and reproduces the partner's samples (5.8e-15 measured)
    result = scenario_cache("fig3a").result
    partner = result.partner
    assert partner.tail is not None and partner.x_hi == result.x[-1]
    assert np.max(np.abs(partner(result.x) - result.partner_values)) < 1e-13


def test_bloch_seed_partner_periodic(scenario_cache):
    run = scenario_cache("fig2a")
    r = run.result
    assert r.periodic
    period = run.potential.period
    xs = np.linspace(-3.0, 3.0, 64)
    assert np.max(np.abs(r.partner(xs + period) - r.partner(xs))) < 1e-9


def test_susy1_rejects_nodes():
    grow, _ = bloch_seed(LAME2, 1.6)  # in-gap seed carries nodes
    with pytest.raises(SingularTransformError):
        susy1(LAME2, grow)


def test_susy1_riccati_gate():
    seed = general_seed(FREE, -1.0, 0.5, 0.5)
    corrupted = dataclasses.replace(seed, riccati_residual=1e-3)
    with pytest.raises(SeedConsistencyError):
        susy1(FREE, corrupted)


def test_susy2_confluent_rejected():
    g1, d1 = bloch_seed(LAME1, -1.0)
    with pytest.raises(ConfluentTransformError):
        susy2(LAME1, g1, d1)


def test_susy2_wronskian_zero_rejected():
    # two growing in-gap Bloch seeds at nearby energies in the same gap:
    # W vanishes somewhere for the balanced same-sign mixture of this pair
    s1 = general_seed(LAME1, 1.2, np.cos(np.pi / 4), np.sin(np.pi / 4))
    s2 = general_seed(LAME1, 1.3, np.cos(np.pi / 4), np.sin(np.pi / 4))
    with pytest.raises(SingularTransformError) as err:
        susy2(LAME1, s1, s2)
    assert len(err.value.zeros) >= 1


class _RecordingPotential:
    """v, recording the size of every array it is called on."""

    def __init__(self, v):
        self.v, self.period, self.sizes = v, v.period, []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.v(x)


def test_transforms_reuse_the_seeds_window_v():
    # the seeds carry V on the window; the transforms read it from there, the
    # same bits as V evaluated again, and call V only on one period
    grow, decay = bloch_seed(LAME2, -0.5)
    general = general_seed(LAME2, -0.3, 0.6, 0.8)
    window = grow.x.size
    for seeds in ((grow,), (general,), (grow, general), (decay, general)):
        v = _RecordingPotential(LAME2)
        result = susy1(v, *seeds) if len(seeds) == 1 else susy2(v, *seeds)
        assert window not in v.sizes and v.sizes
        assert np.array_equal(result.v_values, LAME2(grow.x))


def test_susy2_edge_pair(scenario_cache):
    run = scenario_cache("fig1d")
    r = run.result
    assert r.periodic
    assert r.diagnostics["min_abs_w"] > 0.01
    assert all(not k.normalizable for k in r.kernel)
    assert r.diagnostics["wprime_identity_residual"] < 1e-7
    assert r.diagnostics["beta_consistency_residual"] < 1e-6


def test_susy2_bloch_gap_pair(scenario_cache):
    run = scenario_cache("fig2c")
    r = run.result
    assert r.periodic
    assert all(not k.normalizable for k in r.kernel)
    assert r.diagnostics["wprime_identity_residual"] < 1e-7
    assert r.diagnostics["beta_consistency_residual"] < 1e-6


def test_susy2_general_pair_kernel(scenario_cache):
    run = scenario_cache("fig3c")
    r = run.result
    assert not r.periodic
    assert all(k.normalizable for k in r.kernel)
    assert [k.epsilon for k in r.kernel] == [1.2, 1.3]


def test_wprime_identity_from_scratch(scenario_cache):
    # independent route: finite-difference W' against (eps1-eps2) u1 u2
    run = scenario_cache("fig2c")
    s1, s2 = run.result.seeds
    w = s1.u * s2.u_prime - s1.u_prime * s2.u
    h = s1.x[1] - s1.x[0]
    wp_fd = derivative(w, h)
    wp_closed = (s1.epsilon - s2.epsilon) * s1.u * s2.u
    interior = slice(8, -8)
    scale = np.max(np.abs(wp_closed))
    assert np.max(np.abs(wp_fd[interior] - wp_closed[interior])) / scale < 1e-7


def test_beta_consistency_masked(scenario_cache):
    run = scenario_cache("fig2c")
    r = run.result
    s1, s2 = r.seeds
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = s1.u_prime / s1.u
        a2 = s2.u_prime / s2.u
        alt = (s1.epsilon - s2.epsilon) / (a1 - a2)
    mask = np.isfinite(alt) & (np.abs(a1 - a2) > 1e-6)
    assert np.max(np.abs(alt[mask] - r.intertwiner[mask])) < 1e-6


def test_gamma_matches_alpha_route():
    # both seeds nodeless below the spectrum: gamma from the beta-based form
    # must equal the iterated first-order composition gamma = -beta a1 - (V - e1)
    g1, _ = bloch_seed(LAME1, -1.0)
    g2, _ = bloch_seed(LAME1, -0.5)
    r = susy2(LAME1, g1, g2)
    a1 = g1.u_prime / g1.u
    gamma_alpha = -r.intertwiner * a1 - (r.v_values - g1.epsilon)
    assert np.max(np.abs(r.gamma - gamma_alpha)) < 1e-6


def test_factorization_residual_order1(soliton):
    assert factorization_residual(FREE, soliton) < 1e-5


def test_factorization_residual_detects_corruption(soliton):
    broken = dataclasses.replace(soliton, intertwiner=soliton.intertwiner + 0.01)
    assert factorization_residual(FREE, broken) > 1e-3


def test_factorization_residual_order2(scenario_cache):
    run = scenario_cache("fig1d")
    assert factorization_residual(run.potential, run.result) < 1e-5


@pytest.mark.parametrize("name", ["fig1a", "fig2c"])
def test_factorization_residual_is_float(scenario_cache, name):
    # a Python float, as annotated, on an order-1 and an order-2 preset
    run = scenario_cache(name)
    assert type(factorization_residual(run.potential, run.result)) is float


def test_intertwiner_order1(scenario_cache):
    run = scenario_cache("fig1a")
    edge1 = run.band_structure.edges[1]
    psi, _ = bloch_seed(run.potential, edge1)
    _, residual = apply_intertwiner(run.result, psi)
    assert residual < 1e-5


def test_intertwiner_order2(scenario_cache):
    run = scenario_cache("fig1d")
    psi, _ = bloch_seed(run.potential, run.band_structure.edges[0])
    _, residual = apply_intertwiner(run.result, psi)
    assert residual < 1e-5


def test_transform_csv(soliton):
    buf = io.StringIO()
    write_transform_csv(buf, soliton)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,V,V_partner,beta_or_alpha,psi_kernel_1,psi_kernel_2"
    assert len(lines) == len(soliton.x) + 1
    row = lines[1].split(",")
    assert len(row) == 6
    assert row[5] == ""  # order 1: second kernel column empty


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e-300, 1.0 / 3.0, -2.5e-7)


def _planted(values, shift):
    out = np.array(values, dtype=float)
    out[: len(SPECIAL)] = np.roll(SPECIAL, shift)
    return out


def _row_transform_csv(result):
    # reference: the per-row f-string writer, as a list of lines
    lines = ["x,V,V_partner,beta_or_alpha,psi_kernel_1,psi_kernel_2\n"]
    k1 = result.kernel[0].psi if len(result.kernel) > 0 else None
    k2 = result.kernel[1].psi if len(result.kernel) > 1 else None
    for i, xi in enumerate(result.x):
        row = [
            f"{xi:.12g}",
            f"{result.v_values[i]:.12g}",
            f"{result.partner_values[i]:.12g}",
            f"{result.intertwiner[i]:.12g}",
            f"{k1[i]:.12g}" if k1 is not None else "",
            f"{k2[i]:.12g}" if k2 is not None else "",
        ]
        lines.append(",".join(row) + "\n")
    return lines


def test_transform_csv_matches_row_writer(soliton, scenario_cache):
    order2 = scenario_cache("fig1d").result
    assert len(soliton.kernel) == 1 and len(order2.kernel) == 2
    for result in (soliton, order2):
        planted = dataclasses.replace(
            result,
            x=_planted(result.x, 0),
            v_values=_planted(result.v_values, 1),
            partner_values=_planted(result.partner_values, 2),
            intertwiner=_planted(result.intertwiner, 3),
            kernel=tuple(
                dataclasses.replace(k, psi=_planted(k.psi, 4 + j)) for j, k in enumerate(result.kernel)
            ),
        )
        for r in (result, planted, dataclasses.replace(planted, kernel=())):
            buf = io.StringIO()
            write_transform_csv(buf, r)
            assert buf.getvalue().splitlines(keepends=True) == _row_transform_csv(r)


def test_transform_csv_block_edges(soliton, block_edge_column, block_edge_rows):
    # 0, 1 and 2 kernel columns, special values on both sides of each block edge
    columns = [block_edge_column(block_edge_rows, shift) for shift in range(6)]
    states = [dataclasses.replace(soliton.kernel[0], psi=psi) for psi in columns[4:]]
    for count in (0, 1, 2):
        r = dataclasses.replace(
            soliton,
            x=columns[0],
            v_values=columns[1],
            partner_values=columns[2],
            intertwiner=columns[3],
            kernel=tuple(states[:count]),
        )
        buf = io.StringIO()
        write_transform_csv(buf, r)
        assert buf.getvalue().splitlines(keepends=True) == _row_transform_csv(r)


@pytest.mark.parametrize("name", ["fig1a", "fig3d"])
def test_transform_csv_memory_is_bounded(scenario_cache, name):
    # formatted one block at a time; the whole 32 769-row table at once
    # peaked at 9.4 (fig1a) and 11.1 MB (fig3d)
    result = scenario_cache(name).result
    discard = SimpleNamespace(write=len)
    tracemalloc.start()
    try:
        write_transform_csv(discard, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.x) == 32769
    assert peak <= 1e6


def test_partner_tail_evaluation(scenario_cache):
    run = scenario_cache("fig3a")
    partner = run.result.partner
    period = run.potential.period
    far = partner.x_hi + 10 * period
    assert partner(far) == pytest.approx(partner.tail(far), abs=1e-12)


@pytest.mark.parametrize("c, branch", [((0.6, 0.8), 0), ((0.0, 1.0), 1)],
                         ids=["both-branches", "decaying-only"])
def test_general_tail_is_its_dominant_branch_partner(c, branch):
    # sample for sample: the tail of a general partner is the periodic
    # partner of the fastest-growing branch its seed holds
    tail = susy1(LAME2, general_seed(LAME2, -0.5, *c)).partner.tail
    periodic = susy1(LAME2, bloch_seed(LAME2, -0.5)[branch])
    assert periodic.periodic
    assert np.array_equal(tail.values, periodic.partner.values)


@pytest.mark.parametrize("name", ["fig3c", "fig3d"])
def test_general_pair_tail_is_the_growing_pair_partner(scenario_cache, name):
    run = scenario_cache(name)
    growing = [bloch_seed(run.potential, seed.epsilon)[0] for seed in run.result.seeds]
    periodic = susy2(run.potential, *growing)
    assert periodic.periodic
    assert np.array_equal(run.result.partner.tail.values, periodic.partner.values)


@pytest.mark.parametrize("branch", [0, 1])
def test_one_general_seed_makes_a_tailed_pair_partner(scenario_cache, branch):
    # the partner is periodic only when every seed is a Bloch seed; a Bloch
    # seed's tail branch is the seed itself
    run = scenario_cache("fig3c")
    v, (seed1, seed2) = run.potential, run.result.seeds
    bloch1 = bloch_seed(v, seed1.epsilon)[branch]
    mixed = susy2(v, bloch1, seed2)
    assert not mixed.periodic
    periodic = susy2(v, bloch1, bloch_seed(v, seed2.epsilon)[0])
    assert np.array_equal(mixed.partner.tail.values, periodic.partner.values)


def _brute_force_expected_rates(s1, s2):
    """expected_decay_rate of both order-2 kernel states from the dominant
    growth of W over every pair of active branches, one pair at a time."""
    def rates(seed):
        return [b.growth_rate for c, b in seed.branches if c != 0.0]

    pairs = [r1 + r2 for r1 in rates(s1) for r2 in rates(s2)]
    w_plus, w_minus = max(pairs), max(-p for p in pairs)
    out = []
    for numerator in (s2, s1):  # psi_1 ~ u2 / W, psi_2 ~ u1 / W
        r = rates(numerator)
        plus = w_plus - max(r)
        minus = w_minus - max(-x for x in r)
        out.append(0.5 * (plus + minus) if plus > 1e-12 and minus > 1e-12 else None)
    return out


@pytest.mark.parametrize("name", ["fig3c", "fig3d", "bloch_general"])
def test_kernel_expected_rate_is_max_over_branch_pairs(scenario_cache, name):
    if name == "bloch_general":
        seeds = (bloch_seed(LAME1, -1.0)[0], general_seed(LAME1, 0.0, 0.6, 0.8))
        result = susy2(LAME1, *seeds)
    else:
        result = scenario_cache(name).result
    expected = [k.expected_decay_rate for k in result.kernel]
    assert expected == _brute_force_expected_rates(*result.seeds)
    assert any(rate is not None for rate in expected)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.floats(0.05, 0.95),
    epsilon=st.floats(-2.0, -0.1),
)
def test_bloch_partner_keeps_discriminant(n, m, epsilon):
    # V >= 0, so epsilon < 0 lies below the spectrum; the growing Bloch seed
    # there is nodeless and its partner is isospectral.  Criterion 8's 1e-5
    # holds where |D| <= 2; below the spectrum and in the gaps |D| reaches
    # 1e7, so the bound scales with max(1, |D|).
    v = lame(n, m)
    partner = susy1(v, bloch_seed(v, epsilon)[0]).partner
    energies = np.linspace(*v.band_window, 16)
    d = discriminants(v, energies)
    assert np.all(np.abs(discriminants(partner, energies) - d) <= 1e-5 * np.maximum(1.0, np.abs(d)))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    n=st.sampled_from([1, 2, 3]),
    m=st.floats(0.05, 0.95),
    epsilon=st.floats(-2.0, -0.1),
)
@example(n=3, m=0.95, epsilon=-0.1)  # beta = 5.2e6
@example(n=3, m=0.95, epsilon=-2.0)  # beta = 4.4e7
def test_inverse_transform_round_trip(n, m, epsilon):
    # the partner's decaying Bloch solution at epsilon is 1/u; the transform
    # it seeds undoes the first and gives V back.  With the decaying branch
    # built forward, beta >= 1e6 failed the Riccati gate
    v = lame(n, m)
    grow, _ = bloch_seed(v, epsilon)
    partner = susy1(v, grow).partner
    _, back = bloch_seed(partner, epsilon)
    assert back.multiplier == pytest.approx(1.0 / grow.multiplier, rel=1e-9)
    again = susy1(partner, back)
    assert np.array_equal(again.x, grow.x)
    assert np.max(np.abs(again.partner_values - v(again.x))) < 1e-9


@pytest.mark.parametrize("n, m", [(1, 0.5), (2, 0.5), (3, 0.3), (2, 0.8)])
def test_crum_chain_matches_susy2(n, m):
    # Crum (1955): the order-2 partner V - 2 (ln W)'' is the order-1 partner,
    # at eps2, of the order-1 partner P at eps1, seeded by P's own Bloch
    # solution, whose multiplier is the original one.  Both energies lie
    # below the spectrum, as V >= 0.  Worst measured over the 12 cases:
    # 7.3e-12 in the partner and 1.9e-13 in the multiplier (n = 2, m = 0.8)
    v = lame(n, m)
    eps1, eps2 = -1.0, -0.5
    first, second = bloch_seed(v, eps1), bloch_seed(v, eps2)
    for k1, k2 in ((0, 0), (0, 1), (1, 1)):  # (growing, decaying) index
        direct = susy2(v, first[k1], second[k2])
        p = susy1(v, first[k1]).partner
        seed = bloch_seed(p, eps2)[k2]
        chain = susy1(p, seed)
        assert np.array_equal(chain.x, direct.x)
        middle = slice(len(direct.x) // 4, 3 * len(direct.x) // 4 + 1)
        assert np.max(np.abs(chain.partner_values[middle] - direct.partner_values[middle])) < 2e-11
        assert seed.multiplier == pytest.approx(second[k2].multiplier, rel=1e-12)


@pytest.fixture(scope="module")
def long_pair():
    v = lame(1, 0.5)

    def run(periods):
        s1 = bloch_seed(v, -1.0, periods=periods)[0]
        s2 = bloch_seed(v, -0.5, periods=periods)[0]
        return susy2(v, s1, s2)

    return run


@pytest.mark.parametrize("periods", [100, 140])
def test_susy2_long_window_stays_finite(long_pair, periods):
    # |W| passes 1e154 on these windows, where W * W overflowed and left NaN
    # partner values behind without an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        long = long_pair(periods)
    assert np.all(np.isfinite(long.partner_values))
    ref = long_pair(16)
    centre = slice((ref.x.size - 8193) // 2, (ref.x.size + 8193) // 2)
    start = int(np.argmin(np.abs(long.x - ref.x[centre][0])))
    on_long = slice(start, start + 8193)
    assert np.max(np.abs(long.x[on_long] - ref.x[centre])) < 1e-12
    assert np.max(np.abs(long.partner_values[on_long] - ref.partner_values[centre])) < 1e-10
