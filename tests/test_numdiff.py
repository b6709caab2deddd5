import numpy as np
import pytest

from susyband.numdiff import cell_max, derivative, local_max, sign_changes


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
