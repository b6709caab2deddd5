import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyband.numdiff import _itp, cell_max, derivative, local_max, sign_changes
from susyband.potentials import lame
from susyband.scenarios import run_scenario
from susyband.seeds import _count_nodes, bloch_seed, general_seed
from test_floquet import lame_edges_closed_form


def test_cell_max_inclusive_segments():
    rng = np.random.default_rng(4)
    spp = 8
    a = rng.standard_normal(5 * spp + 1)
    want = [np.max(a[c * spp : (c + 1) * spp + 1]) for c in range(5)]
    assert np.array_equal(cell_max(a, spp), want)
    rows = rng.standard_normal((3, 5 * spp + 1))
    assert np.array_equal(cell_max(rows, spp)[1], cell_max(rows[1], spp))


def test_local_max_shared_sample_takes_later_cell():
    spp = 4
    a = np.zeros(3 * spp + 1)
    a[2] = 5.0  # cell 0
    a[spp] = 1.0  # shared by cells 0 and 1
    a[2 * spp + 1] = 7.0  # cell 2
    local = local_max(a, spp)
    assert local.shape == a.shape
    assert np.array_equal(local[:spp], [5.0] * spp)
    assert np.array_equal(local[spp : 2 * spp], [1.0] * spp)
    assert np.array_equal(local[2 * spp :], [7.0] * (spp + 1))


def test_sign_changes_match_sign_product():
    # reference: the product of neighbouring signs, on zeros of both signs,
    # subnormals, infinities, NaN and samples whose products overflow
    values = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300]
    a = np.random.default_rng(5).choice(values, size=(4, 500))
    signs = np.sign(a)
    want = signs[..., :-1] * signs[..., 1:] < 0.0
    assert np.array_equal(sign_changes(a), want)
    assert np.array_equal(sign_changes(a[2]), want[2])


@pytest.mark.parametrize("size", [7, 8, 32769])
def test_derivative_end_values_from_end_samples(size):
    # the six end values come from np.gradient on seven samples at each end,
    # bit for bit those of np.gradient over the whole array
    rng = np.random.default_rng(size)
    y = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5, size)
    h = float(rng.uniform(1e-3, 1.0))
    d = derivative(y, h)
    edge = np.gradient(y, h, edge_order=2)
    assert np.array_equal(d[:3], edge[:3])
    assert np.array_equal(d[-3:], edge[-3:])


def _scalar_itp(f, a, b, f_a, f_b, width, kappa1):
    """ITP one bracket at a time, as the scalar loop of itp_root was."""
    n_max = max(0, math.ceil(math.log2(max(b - a, width) / width))) + 1
    for j in range(n_max):
        if b - a <= width:
            break
        mid = 0.5 * (a + b)
        x_f = (f_b * a - f_a * b) / (f_b - f_a)
        sigma = math.copysign(1.0, mid - x_f)
        delta = max(kappa1 * (b - a) ** 2, 0.5 * width)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        r = 0.5 * width * 2.0 ** (n_max - j) - 0.5 * (b - a)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        y = f(x)
        a, f_a, b, f_b = (x, y, b, f_b) if y < 0.0 else (a, f_a, x, y)
    return 0.5 * (a + b)


def _scalar_roots(f, a, b, f_a, f_b, width, kappa1):
    """_scalar_itp on each bracket, on s f where f falls (s = -1), as the node
    refinement of the seeds was; f is evaluated on one point at a time."""
    roots = []
    for a_k, b_k, fa_k, fb_k in zip(*(np.asarray(z, dtype=float).tolist() for z in (a, b, f_a, f_b))):
        s = -1.0 if fb_k < 0.0 else 1.0
        roots.append(_scalar_itp(lambda x: s * float(f(np.array([x]))[0]), a_k, b_k,
                                 s * fa_k, s * fb_k, width, kappa1))
    return np.array(roots)


_BRACKET = st.tuples(
    st.sampled_from(["smooth", "midpoint", "narrow"]),
    st.floats(0.0, 1.0), st.floats(-8.0, -0.1), st.floats(0.0, 1.0),
    st.sampled_from([1.0, -1.0]), st.floats(-0.45, 0.45),
)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(_BRACKET, min_size=1, max_size=8), st.floats(1e-6, 1.0))
def test_lockstep_itp_is_the_scalar_loop(brackets, kappa1):
    # bracket k lies in [k, k + 1), where f is a monotone quadratic through its
    # root r_k, rising or falling: the lockstep routine returns the scalar
    # loop's root, bit for bit, on brackets of 1e-8 to 0.8, on brackets
    # already narrower than the width, and with the root on the midpoint of a
    # dyadic bracket, where f is linear
    rows = []
    for k, (kind, start, log_width, frac, slope, curve) in enumerate(brackets):
        if kind == "midpoint":
            a = k + round(start * 16.0) / 64.0
            b = a + 2.0 ** (round(log_width) - 1)
            root, curve = 0.5 * (a + b), 0.0
        else:
            a = k + 0.1 * start
            b = a + (1e-13 * (1.0 + start) if kind == "narrow" else 0.8 * 10.0 ** log_width)
            root = a + frac * (b - a)
        rows.append((a, b, root, slope, curve / (b - a)))
    lo, hi, roots, slopes, curves = map(np.array, zip(*rows))

    def f(x):
        k = np.floor(x).astype(int)
        t = x - roots[k]
        return slopes[k] * t * (1.0 + curves[k] * t)

    f_a, f_b = f(lo), f(hi)
    found = _itp(f, lo, hi, f_a, f_b, 1e-12, kappa1)
    assert np.array_equal(found, _scalar_roots(f, lo, hi, f_a, f_b, 1e-12, kappa1))
    assert np.all((lo <= found) & (found <= hi))


def test_lockstep_itp_squares_as_the_scalar_loop():
    # f(x) = x on [-w/4, 3w/4]: the regula falsi point is 0, so the first
    # point is kappa1 w^2 itself.  On the widths whose square by Python's pow
    # and by a product differ in the last bit, the routine is still the loop
    a = -0.25 * np.random.default_rng(1).uniform(1e-3, 1.0, 100_000)
    b = -3.0 * a
    odd = np.array([w**2 != w * w for w in (b - a).tolist()])
    a, b = a[odd], b[odd]
    assert a.size > 50
    found = _itp(lambda x: x, a, b, a, b, 1e-12, 0.2)
    assert np.array_equal(found, _scalar_roots(lambda x: x, a, b, a, b, 1e-12, 0.2))


def _seed_nodes(x, u, evaluate):
    """The sign-change nodes of u, refined by the scalar loop on the seed's
    scalar evaluate, as they were."""
    i = np.nonzero(sign_changes(u))[0]
    return _scalar_roots(lambda t: evaluate(float(t[0]))[0][None], x[i], x[i + 1], u[i], u[i + 1],
                         1e-12, 0.2 / float(x[-1] - x[0]))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 3), st.floats(0.1, 0.9), st.floats(0.05, 0.95), st.floats(0.0, 1.0),
       st.sampled_from(["general", "grow", "decay"]), st.floats(0.0, math.pi))
def test_lockstep_nodes_are_the_scalar_nodes(n, m, frac, pick, kind, angle):
    # in-gap seeds, general at a mixing angle or Bloch: as many nodes as the
    # one-node-at-a-time refinement, each within its 1e-12 width (the array
    # and the scalar evaluate differ by an ulp at times)
    edges = lame_edges_closed_form(n, m)
    gap = min(int(pick * n), n - 1)
    eps = edges[2 * gap + 1] + frac * (edges[2 * gap + 2] - edges[2 * gap + 1])
    v = lame(n, m)
    if kind == "general":
        seed = general_seed(v, eps, math.cos(angle), math.sin(angle))
    else:
        seed = bloch_seed(v, eps)[kind == "decay"]
    found, _ = _count_nodes(seed.x, seed.u, seed.samples_per_period, seed.evaluate)
    reference = np.sort(_seed_nodes(seed.x, seed.u, seed.evaluate))
    assert len(found) == len(reference) > 0
    assert np.max(np.abs(np.array(found) - reference)) <= 1e-12
    if kind == "general":
        assert seed.nodes == tuple(found)


def test_nodes_refined_in_a_few_rounds():
    # fig3c's first seed has 16 nodes; one node at a time took about 70 calls
    seed = run_scenario("fig3c").seeds[0]
    sizes = []

    def counting(t):
        sizes.append(np.size(t))
        return seed.evaluate(t)

    nodes, _ = _count_nodes(seed.x, seed.u, seed.samples_per_period, counting)
    assert len(nodes) == 16
    assert tuple(nodes) == seed.nodes
    assert len(sizes) <= 8
    assert sizes[0] == 16
