import ast
import dataclasses
import inspect
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyband import floquet, seeds
from susyband.elliptic import complete_k, jacobi_sncndn
from susyband.errors import BandEnergyError, SingularSeedError, WindowOverflowError
from susyband._csvtext import BLOCK_ROWS
from susyband.floquet import propagate
from susyband.numdiff import sign_changes
from susyband.potentials import ConstantPotential, lame
from susyband.seeds import (
    RICCATI_GATE,
    BlochBranch,
    bloch_branches,
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


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.99])
def test_edge_seed_nodes_closed_form(m):
    # the edges of lame(1, m) at 1 and 1 + m carry cn and sn: on the base
    # cell [0, 2K) cn vanishes once, at K, and sn at 0
    v = lame(1, m)
    cn, _ = bloch_seed(v, 1.0)
    sn, _ = bloch_seed(v, 1.0 + m)
    assert cn.kind == sn.kind == "bloch_edge"
    assert len(cn.nodes) == 1
    assert abs(cn.nodes[0] - complete_k(m)) <= 1e-11
    assert sn.nodes == (0.0,)
    assert all(type(t) is float for t in cn.nodes + sn.nodes)


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


def _node_scan_reference(v, epsilon, scan_resolution=720, periods=16):
    """The node scan as the full table of mixtures, 64 angles at a time:
    sign changes plus exactly zero samples (the last one excepted)."""
    grow, decay, _ = seeds.bloch_branches(v, epsilon, samples_per_period=256)
    u_grow, _ = grow.window(periods)
    u_decay, _ = decay.window(periods)
    thetas = np.arange(scan_resolution) * (math.pi / scan_resolution)
    counts = []
    for block in np.split(thetas, np.arange(64, scan_resolution, 64)):
        mixtures = np.cos(block)[:, None] * u_grow + np.sin(block)[:, None] * u_decay
        counts.extend(sign_changes(mixtures).sum(axis=1) + (mixtures[:, :-1] == 0.0).sum(axis=1))
    out = []
    for theta, count in zip(thetas, counts):
        ratio = math.inf if abs(theta - 0.5 * math.pi) < 1e-12 else math.tan(theta)
        out.append((ratio, int(count)))
    return out


_SCAN_RESOLUTIONS = (4, 16, 180, 720, 1441)


@pytest.mark.parametrize("n, epsilon", [
    (1, -1.0), (2, 0.4), (2, 1.6), (2, 2.9), (3, 2.3), (3, 5.0),  # fig2
    (1, 0.0), (1, 1.2), (1, 1.3), (2, 1.51), (2, 2.51),  # fig3
])
def test_node_scan_matches_table_at_figure_energies(n, epsilon):
    v = lame(n, 0.5)
    for resolution in _SCAN_RESOLUTIONS:
        assert node_scan(v, epsilon, resolution) == _node_scan_reference(v, epsilon, resolution)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(n=st.sampled_from([1, 2, 3]), m=st.floats(0.05, 0.95), region=st.integers(0, 3),
       frac=st.floats(0.02, 0.98))
def test_node_scan_matches_table(lame_bands, n, m, region, frac):
    # region 0 lies below the spectrum, region k in the k-th gap
    edges = lame_bands(n, m).edges
    region = min(region, n)
    if region == 0:
        epsilon = edges[0] - 2.0 * frac
    else:
        lo, hi = edges[2 * region - 1], edges[2 * region]
        epsilon = lo + (hi - lo) * frac
    v = lame(n, m)
    grow, decay, _ = bloch_branches(v, epsilon, samples_per_period=256)
    assume(grow is not decay)  # a narrow gap's edge, where the scan is undefined
    for resolution in _SCAN_RESOLUTIONS:
        assert node_scan(v, epsilon, resolution) == _node_scan_reference(v, epsilon, resolution)


def test_node_scan_counts_exact_zero_samples(monkeypatch):
    # a mixture that is exactly 0 on a sample, between samples of opposite
    # signs, has a node there, as in _count_nodes: the growing branch below
    # runs 1, 0, -1, 0 over each of 4 samples per period, two nodes a period
    ones = np.ones(5)
    wave = BlochBranch(1.0, 1.0, np.array([1.0, 0.0, -1.0, 0.0, 1.0]), ones, ones)
    flat = BlochBranch(1.0, 1.0, ones, ones, ones)
    monkeypatch.setattr(seeds, "bloch_branches", lambda *args, **kwargs: (wave, flat, 3.0))
    scan = node_scan(LAME1, -1.0, 4, periods=16)
    assert scan[0] == (0.0, 32)  # the angle 0: the growing branch alone
    # the angle pi/2: the flat branch, plus cos(pi/2) = 6e-17 of the wave
    assert scan[2] == (math.inf, 0)
    # with dip, both branches vanish on a sample, and every mixture there;
    # with tilt, the mixture at pi/2 is exactly 0 on a sample, where its
    # sign flips: cos(pi/2) - cos(pi/2) sin(pi/2)
    dip = BlochBranch(1.0, 1.0, np.array([1.0, 0.0, 2.0, -1.0, 1.0]), ones, ones)
    c = np.cos(np.arange(4) * (math.pi / 4))[2]
    tilt = BlochBranch(1.0, 1.0, np.array([-c, 1.0, -1.0, 0.5, -c]), ones, ones)
    pairs = ((wave, flat), (wave, dip), (dip, wave), (flat, dip), (flat, tilt), (dip, tilt))
    for branches in pairs:
        monkeypatch.setattr(seeds, "bloch_branches", lambda *args, **kwargs: (*branches, 3.0))
        for k in (4, 16, 180):
            assert node_scan(LAME1, -1.0, k) == _node_scan_reference(LAME1, -1.0, k)


def test_node_scan_rejects_an_overflowing_window():
    # over 400 periods the growing branch at -1 passes 1e308
    with pytest.raises(WindowOverflowError):
        node_scan(LAME1, -1.0, 16, periods=400)


def test_node_scan_long_window_compares_signs():
    # over 200 periods the window amplitudes reach about 1e155, where the
    # product of two neighbouring samples overflows
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
    # no table of mixtures: one flip index per sample.  The table held whole
    # at 720 angles over 64 periods peaked near 300 MB, in blocks of 64 angles
    # near 26 MB; without it the scan peaks near 2.4 MB
    tracemalloc.start()
    try:
        node_scan(LAME1, -1.0, periods=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_nodeless_mixing_midpoint():
    c_plus, c_minus = nodeless_mixing(LAME1, 0.0)
    assert c_plus == pytest.approx(math.cos(math.pi / 4), abs=0.05)
    assert c_minus == pytest.approx(math.sin(math.pi / 4), abs=0.05)
    seed = general_seed(LAME1, 0.0, c_plus, c_minus)
    assert seed.node_count == 0
    assert seed.grows_both_ways


def _first_longest_run(counts):
    # reference: the run-length loop over the indices of nodeless angles
    zero = [i for i, count in enumerate(counts) if count == 0]
    runs, start, prev = [], zero[0], zero[0]
    for i in zero[1:]:
        if i != prev + 1:
            runs.append((start, prev))
            start = i
        prev = i
    runs.append((start, prev))
    return max(runs, key=lambda r: r[1] - r[0])


def test_nodeless_mixing_picks_first_longest_run(monkeypatch):
    # ties, runs at both ends and single angles, against the loop
    import susyband.seeds as seeds_module

    rng = np.random.default_rng(11)
    patterns = [[0, 1, 0, 0, 1, 0, 0], [0] * 5, [1, 0], [0, 1], [2, 0, 1, 0, 3]]
    patterns += [rng.integers(0, 2, size=size).tolist() for size in rng.integers(2, 60, 200)]
    for counts in patterns:
        if 0 not in counts:
            continue
        scan = [(0.0, count) for count in counts]
        monkeypatch.setattr(seeds_module, "node_scan", lambda *args, **kwargs: scan)
        lo, hi = _first_longest_run(counts)
        mid = 0.5 * (lo + hi) * math.pi / len(counts)
        assert nodeless_mixing(LAME1, 0.0) == (math.cos(mid), math.sin(mid))


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


def _row_seed_csv(seed):
    # reference: the per-row f-string writer, as a list of lines (it did not
    # silence an overflowing u'/u, which is blank all the same)
    lines = ["x,u,u_prime,alpha\n"]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = seed.u_prime / seed.u
    for x, u, up, a in zip(seed.x, seed.u, seed.u_prime, alpha):
        a_txt = f"{a:.12g}" if np.isfinite(a) else ""
        lines.append(f"{x:.12g},{u:.12g},{up:.12g},{a_txt}\n")
    return lines


def test_seed_csv_matches_row_writer():
    seed, _ = bloch_seed(LAME1, -1.0, periods=2, samples_per_period=32)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e-300, 1.0 / 3.0, -2.5e-7)
    x, u, up = (np.array(a, dtype=float) for a in (seed.x, seed.u, seed.u_prime))
    for column, shift in ((x, 0), (u, 1), (up, 2)):
        column[: len(special)] = np.roll(special, shift)
    u[20] = 0.0  # a node with a finite derivative: alpha is blank
    assert (up[8], u[8]) == (1e300, -1e-300)  # u'/u overflows: blank too
    planted = dataclasses.replace(seed, x=x, u=u, u_prime=up)
    for s in (seed, planted):
        buf = io.StringIO()
        write_seed_csv(buf, s)
        assert buf.getvalue().splitlines(keepends=True) == _row_seed_csv(s)
    lines = buf.getvalue().split("\n")
    assert lines[9].endswith(",") and lines[21].endswith(",")


def test_seed_csv_block_edges(block_edge_column, block_edge_rows):
    seed, _ = bloch_seed(LAME1, -1.0, periods=2, samples_per_period=32)
    rows = block_edge_rows
    x, u, up = (block_edge_column(rows, shift) for shift in range(3))
    # a node on each side of each block edge: a blank alpha in the last row
    # of one block and the first row of the next
    nodes = [i for i in range(1, rows) if i % BLOCK_ROWS in (0, BLOCK_ROWS - 1)]
    u[nodes], up[nodes] = 0.0, 1.0
    planted = dataclasses.replace(seed, x=x, u=u, u_prime=up)
    buf = io.StringIO()
    write_seed_csv(buf, planted)
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines == _row_seed_csv(planted)
    assert all(lines[1 + i].endswith(",\n") for i in nodes)


def test_seed_csv_memory_is_bounded():
    # formatted one block at a time; the whole 32 769-row table at once
    # peaked at 12.0 MB
    seed, _ = bloch_seed(LAME1, -1.0)
    discard = SimpleNamespace(write=len)
    tracemalloc.start()
    try:
        write_seed_csv(discard, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seed.x) == 32769
    assert peak <= 1e6


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


# energies below the spectrum (V >= 0), with multipliers from about 1.2 up
# to 4.4e7 (lame(3, 0.95) at -2)
_BELOW_SPECTRUM = dict(n=st.sampled_from([1, 2, 3]), m=st.floats(0.05, 0.95),
                       epsilon=st.floats(-2.0, -0.1))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(**_BELOW_SPECTRUM)
def test_decaying_bloch_seed_passes_gate(n, m, epsilon):
    # built forward, the decaying branch jumped at every period boundary by
    # rounding amplified by beta^2, and failed the gate from beta ~ 1e4 on
    grow, decay = bloch_seed(lame(n, m), epsilon)
    assert decay.riccati_residual < RICCATI_GATE
    assert grow.riccati_residual < RICCATI_GATE


def test_large_multiplier_seeds_far_inside_gate():
    # the decaying seeds read 6.0e-2 and 2.3e-6 and the general seed 2.6e-7
    # when the decaying branch was built forward
    for n, m, epsilon in ((3, 0.95, -0.1), (2, 0.8, -2.0)):
        _, decay = bloch_seed(lame(n, m), epsilon)
        assert decay.riccati_residual <= 1e-8
    v = lame(3, 0.61)
    assert general_seed(v, 0.3, *nodeless_mixing(v, 0.3)).riccati_residual <= 1e-8


@pytest.mark.parametrize("n, m, epsilon", [(3, 0.95, -0.1), (2, 0.8, -2.0), (2, 0.5, 1.6), (1, 0.5, 0.5)])
def test_bloch_branches_one_pass_in_stable_directions(monkeypatch, n, m, epsilon):
    # one cell pass per call; each branch holds the gauge u(0) = 1 exactly
    # and closes on u(T) = beta u(0) to rounding, the decaying one too
    calls = []
    cells = floquet._cells
    monkeypatch.setattr(floquet, "_cells", lambda *args: calls.append(args) or cells(*args))
    grow, decay, _ = bloch_branches(lame(n, m), epsilon, samples_per_period=1024)
    assert len(calls) == 1
    for branch in (grow, decay):
        assert branch.u.shape == branch.u_prime.shape == branch.u_second.shape == (1025,)
        assert branch.u[0] == 1.0
        assert branch.u[-1] == pytest.approx(branch.multiplier, rel=1e-13)


def test_seeds_imports_no_scipy(tmp_path):
    tree = ast.parse(inspect.getsource(seeds))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "scipy" for name in imported)
    # the whole package imports, and each subcommand runs, with scipy unimportable
    script = ("import sys; sys.modules['scipy'] = None; import susyband; "
              "from susyband.cli import run; sys.exit(run(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(seeds.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (["bands", "--lame-n", "1"],
                 ["states", "--lame-n", "2", "--epsilon", "1.6"],
                 ["invariance", "--lame-n", "1", "--epsilon=-0.2"],
                 ["transform", "--scenario", "fig2a"],  # a periodic partner table
                 ["transform", "--scenario", "fig3a"]):  # a partner table with a tail
        done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)


@pytest.mark.parametrize("epsilon", [-1.0, 1.6])
def test_branch_samples_tile_and_interpolate(epsilon):
    # on the window grid the branch reads its own samples; between them
    # Hermite interpolation agrees with a trace at twice the sampling
    v = LAME2
    grow, decay, _ = bloch_branches(v, epsilon, samples_per_period=512)
    x = window_grid(v.period, 5, 512)
    _, trace = propagate(v, epsilon, 0.0, v.period, samples=1024)
    mid = np.linspace(0.0, v.period, 1025)[1::2]
    for branch in (grow, decay):
        u, up = branch.window(5)
        u_x, up_x = branch.evaluate(x)
        assert np.max(np.abs(u - u_x) / np.maximum(np.abs(u), 1.0)) < 1e-12
        assert np.max(np.abs(up - up_x) / np.maximum(np.abs(up), 1.0)) < 1e-12
        assert np.array_equal(u[2 * 512 : 3 * 512 + 1], branch.u[:-1].tolist() + [branch.multiplier * branch.u[0]])
        direct = (trace @ np.array([branch.u[0], branch.u_prime[0]]))[1::2]
        u_mid, up_mid = branch.evaluate(mid)
        assert np.max(np.abs(u_mid - direct[:, 0])) < 1e-9 * np.max(np.abs(direct[:, 0]))
        assert np.max(np.abs(up_mid - direct[:, 1])) < 1e-9 * np.max(np.abs(direct[:, 1]))
