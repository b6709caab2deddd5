import io
import math
import warnings

import numpy as np
import pytest

from susyband.elliptic import jacobi_sncndn
from susyband.errors import BandEnergyError, SingularSeedError, WindowOverflowError
from susyband.floquet import propagate
from susyband.potentials import ConstantPotential, lame
from susyband.seeds import (
    RICCATI_GATE,
    bloch_seed,
    general_seed,
    node_scan,
    nodeless_mixing,
    superpotential,
    window_grid,
    write_seed_csv,
)

LAME1 = lame(1, 0.5)
LAME2 = lame(2, 0.5)


def test_edge_seed_is_dn():
    seed, twin = bloch_seed(LAME1, 0.5)
    assert twin is seed  # degenerate pair at a band edge
    assert seed.kind == "bloch_edge"
    assert seed.multiplier == 1.0
    assert seed.node_count == 0
    _, _, dn = jacobi_sncndn(seed.x, 0.5)
    assert np.max(np.abs(seed.u - dn)) < 1e-10


def test_bloch_pair_below_first_edge():
    grow, decay = bloch_seed(LAME1, -1.0)
    assert grow.kind == "bloch_gap" and decay.kind == "bloch_gap"
    assert grow.multiplier > 1.0 > decay.multiplier > 0.0
    assert grow.multiplier * decay.multiplier == pytest.approx(1.0, abs=1e-9)
    assert grow.node_count == 0 and decay.node_count == 0
    assert grow.riccati_residual < RICCATI_GATE
    assert decay.riccati_residual < RICCATI_GATE


def test_bloch_extension_against_direct_integration():
    # the invariant: u(x + T) = beta u(x) built by extension must match a
    # direct two-period integration of the same initial data
    seed, _ = bloch_seed(LAME1, -1.0)
    period = LAME1.period
    _, trace = propagate(LAME1, -1.0, 0.0, 2 * period, samples=256)
    u0, up0 = seed.evaluate(0.0)
    direct = trace @ np.array([float(u0), float(up0)])
    xs = np.linspace(0.0, 2 * period, 257)
    u_ext, _ = seed.evaluate(xs)
    assert np.max(np.abs(direct[:, 0] - u_ext)) / np.max(np.abs(u_ext)) < 1e-7


def test_pair_wronskian_constant():
    grow, decay = bloch_seed(LAME1, -1.0)
    w = grow.u * decay.u_prime - grow.u_prime * decay.u
    assert (np.max(w) - np.min(w)) / abs(np.mean(w)) < 1e-8


def test_in_gap_seed_has_nodes():
    grow, decay = bloch_seed(LAME2, 1.6)
    assert grow.node_count == 1  # per period
    assert grow.multiplier < -1.0  # negative multiplier gap
    assert grow.riccati_residual < RICCATI_GATE


def test_band_energy_rejected():
    with pytest.raises(BandEnergyError):
        bloch_seed(LAME1, 0.75)
    with pytest.raises(BandEnergyError):
        general_seed(LAME1, 0.75, 1.0, 1.0)


def test_general_seed_reduces_to_bloch():
    grow, _ = bloch_seed(LAME1, -1.0)
    mix = general_seed(LAME1, -1.0, 1.0, 0.0)
    assert np.max(np.abs(mix.u - grow.u)) == 0.0
    assert mix.kind == "general"


def test_general_seed_rejects_zero_mixing():
    with pytest.raises(ValueError):
        general_seed(LAME1, -1.0, 0.0, 0.0)


def test_sign_flip_is_projective():
    a = general_seed(LAME1, 0.0, 0.6, 0.8)
    b = general_seed(LAME1, 0.0, -0.6, -0.8)
    assert a.node_count == b.node_count
    alpha_a = a.u_prime / a.u
    alpha_b = b.u_prime / b.u
    assert np.max(np.abs(alpha_a - alpha_b)) < 1e-12


def test_node_scan_below_first_edge():
    scan = node_scan(LAME1, 0.0)
    zero = [(r, c) for r, c in scan if c == 0]
    assert zero, "an open interval of nodeless mixings must exist"
    # positive-ratio mixtures of two positive solutions stay nodeless
    assert all(r >= 0 or r == math.inf for r, _ in zero)
    # the two Bloch endpoints are included and nodeless here
    assert scan[0][0] == 0.0 and scan[0][1] == 0
    inf_entries = [c for r, c in scan if r == math.inf]
    assert inf_entries == [0]


def test_node_scan_brute_force_oracle():
    # independent count: dense sign changes of the mixture, no node_scan code
    from susyband.seeds import bloch_branches

    grow, decay, _ = bloch_branches(LAME1, 0.0, samples_per_period=512)
    xs = np.linspace(-8 * LAME1.period, 8 * LAME1.period, 16 * 512 + 1)
    ug, _ = grow.evaluate(xs)
    ud, _ = decay.evaluate(xs)
    for ratio in (0.5, 1.0, 2.0, -1.0):
        u = ug + ratio * ud
        brute = int(np.sum(u[:-1] * u[1:] < 0.0)) + int(np.sum(u == 0.0))
        theta = math.atan2(ratio, 1.0) % math.pi
        c = (math.cos(theta), math.sin(theta))
        mix = general_seed(LAME1, 0.0, *c)
        assert mix.node_count == brute


def test_node_scan_in_gap_floor():
    # gap bounded by edges with 1 node per period: every mixing carries at
    # least one node per period over the window
    scan = node_scan(LAME2, 1.6, scan_resolution=180)
    min_count = min(c for _, c in scan)
    assert min_count >= 15  # 16-period window, about one node per period


def test_node_scan_long_window_compares_signs():
    # over 200 periods the window amplitudes reach about 1e155, where the
    # product of two neighbouring samples overflows
    from susyband.seeds import bloch_branches

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan = node_scan(LAME1, -1.0, 16, periods=200)
    grow, decay, _ = bloch_branches(LAME1, -1.0, samples_per_period=256)
    x = window_grid(LAME1.period, 200, 256)
    ug, _ = grow.evaluate(x)
    ud, _ = decay.evaluate(x)
    for k, (ratio, count) in enumerate(scan):
        theta = k * (math.pi / 16)
        s = np.sign(math.cos(theta) * ug + math.sin(theta) * ud)
        assert count == int(np.sum(s[:-1] != s[1:]))
        # both branches are positive: a same-sign mixture has no node, any
        # other exactly one
        assert count == (0 if ratio >= 0.0 else 1)


def test_node_scan_memory_is_bounded():
    # the mixture table is counted block by block of angles: held whole at
    # 720 angles over 64 periods it peaked near 300 MB
    import tracemalloc

    tracemalloc.start()
    try:
        node_scan(LAME1, -1.0, periods=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_nodeless_mixing_midpoint():
    c_plus, c_minus = nodeless_mixing(LAME1, 0.0)
    assert c_plus == pytest.approx(math.cos(math.pi / 4), abs=0.05)
    assert c_minus == pytest.approx(math.sin(math.pi / 4), abs=0.05)
    seed = general_seed(LAME1, 0.0, c_plus, c_minus)
    assert seed.node_count == 0
    assert seed.grows_both_ways


def test_nodeless_mixing_missing_in_gap():
    with pytest.raises(SingularSeedError):
        nodeless_mixing(LAME2, 1.6)


def test_window_overflow_names_its_cause():
    # |beta|^200 overflows for beta = 98 at 400 periods; the seed must not
    # reach the Riccati gate holding inf/NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WindowOverflowError) as err:
            bloch_seed(LAME1, -1.0, periods=400)
    assert "overflow" in str(err.value)
    assert err.value.periods == 400
    assert err.value.multiplier > 1.0


def test_huge_amplitude_window_builds_without_overflow():
    # at 200 periods the growing branch reaches about 1e199: the node and
    # Riccati sign tests must compare signs, not form u[i] * u[i + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grow, decay = bloch_seed(LAME1, -1.0, periods=200)
    assert np.max(np.abs(grow.u)) > 1e154
    assert grow.node_count == decay.node_count == 0
    assert superpotential(grow).riccati_residual < RICCATI_GATE


def test_superpotential_free_particle():
    free = ConstantPotential(0.0, period=2.0)
    seed = general_seed(free, -1.0, 0.5, 0.5)  # u = cosh
    trace = superpotential(seed)
    assert np.max(np.abs(trace.alpha - np.tanh(trace.x))) < 1e-9
    assert trace.riccati_residual < RICCATI_GATE


def test_superpotential_dn_closed_form():
    seed, _ = bloch_seed(LAME1, 0.5)
    trace = superpotential(seed)
    sn, cn, dn = jacobi_sncndn(seed.x, 0.5)
    exact = -0.5 * sn * cn / dn  # dn'/dn
    assert np.max(np.abs(trace.alpha - exact)) < 1e-9


def test_superpotential_singular_lists_nodes():
    grow, _ = bloch_seed(LAME2, 1.6)
    with pytest.raises(SingularSeedError) as err:
        superpotential(grow)
    assert len(err.value.nodes) >= 1


def test_edge_node_counts_nondecreasing(lame_bands):
    for n in (1, 2):
        bs = lame_bands(n)
        counts = []
        for edge in bs.edges:
            seed, _ = bloch_seed(lame(n, 0.5), edge)
            counts.append(seed.node_count)
        assert counts[0] == 0
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_seed_csv_format():
    seed, _ = bloch_seed(LAME1, 0.5, periods=2, samples_per_period=32)
    buf = io.StringIO()
    write_seed_csv(buf, seed)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,u,u_prime,alpha"
    assert len(lines) == len(seed.x) + 1
    cells = lines[1].split(",")
    assert len(cells) == 4


@pytest.mark.parametrize("periods", [15, 16])
def test_seeds_sampled_on_window_grid(periods):
    period = LAME1.period
    x = window_grid(period, periods, 64)
    # periods // 2 periods left of x = 0, the rest (the odd one) to the right
    assert x[0] == -(periods // 2) * period
    assert x[-1] == pytest.approx(x[0] + periods * period, abs=1e-12)
    assert x.size == periods * 64 + 1
    grow, _ = bloch_seed(LAME1, -1.0, periods=periods, samples_per_period=64)
    mix = general_seed(LAME1, 0.0, 0.6, 0.8, periods=periods, samples_per_period=64)
    for seed in (grow, mix):
        assert np.array_equal(seed.x, x)
        assert seed.window == (x[0], x[-1])
        assert seed.samples_per_period == 64
