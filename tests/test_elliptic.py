import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from susyband.elliptic import complete_k, jacobi_sncndn, sn_squared
from susyband.errors import EllipticDomainError

# frozen from the quadrature oracle below (also the literature value)
K_HALF = 1.854074677301372


def k_quadrature_oracle(m):
    """Independent route: numerical quadrature of the defining integral."""
    val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, math.pi / 2)
    assert err < 1e-9  # quad's estimate is conservative; actual is far better
    return val


def test_complete_k_trivial_m_zero():
    assert complete_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_complete_k_against_quadrature_oracle():
    for m in (0.1, 0.5, 0.9, 0.99):
        assert complete_k(m) == pytest.approx(k_quadrature_oracle(m), abs=1e-12)
    assert complete_k(0.5) == pytest.approx(K_HALF, abs=1e-14)


def test_complete_k_monotone():
    assert complete_k(0.999) > complete_k(0.99) > complete_k(0.5) > complete_k(0.0)


def test_complete_k_domain():
    with pytest.raises(EllipticDomainError):
        complete_k(1.0)
    with pytest.raises(EllipticDomainError):
        complete_k(-0.1)
    with pytest.raises(EllipticDomainError):
        complete_k(1.1)


def test_jacobi_domain():
    with pytest.raises(EllipticDomainError):
        jacobi_sncndn(0.3, -0.5)
    with pytest.raises(EllipticDomainError):
        jacobi_sncndn(0.3, 1.5)


def test_identities_random_10000():
    rng = np.random.default_rng(20260808)
    xs = rng.uniform(-50.0, 50.0, 10000)
    ms = rng.uniform(0.0, 1.0, 10000)
    worst_pyth = 0.0
    worst_dn = 0.0
    for x, m in zip(xs, ms):
        sn, cn, dn = jacobi_sncndn(float(x), float(m))
        worst_pyth = max(worst_pyth, abs(sn * sn + cn * cn - 1.0))
        worst_dn = max(worst_dn, abs(dn * dn + m * sn * sn - 1.0))
    assert worst_pyth < 1e-12
    assert worst_dn < 1e-12


def test_scalar_path_matches_array_path():
    # a float runs the array path on a one-element array and comes back as floats
    rng = np.random.default_rng(20261018)
    xs = rng.uniform(-50.0, 50.0, 2000)
    ms = rng.uniform(0.01, 0.999, 2000)
    worst = 0.0
    for x, m in zip(xs, ms):
        scalar = jacobi_sncndn(float(x), float(m))
        array = jacobi_sncndn(np.array([x]), float(m))
        assert all(type(f) is float for f in scalar)
        worst = max(worst, max(abs(f - a[0]) for f, a in zip(scalar, array)))
    assert worst < 4e-15


def test_degenerate_limits():
    for x in (-2.3, 0.0, 0.7, 11.0):
        sn, cn, dn = jacobi_sncndn(x, 0.0)
        assert sn == pytest.approx(math.sin(x), abs=1e-15)
        assert cn == pytest.approx(math.cos(x), abs=1e-15)
        assert dn == 1.0
        sn, cn, dn = jacobi_sncndn(x, 1.0)
        assert sn == pytest.approx(math.tanh(x), abs=1e-15)
        assert cn == pytest.approx(1.0 / math.cosh(x), abs=1e-15)
        assert dn == cn
    # below m ~ 1e-31 the Landen ladder is empty; dn is still an array like x
    xs = np.array([0.0, 0.7])
    assert all(f.shape == xs.shape for f in jacobi_sncndn(xs, 1e-300))


def test_quarter_period_values():
    m = 0.5
    quarter = complete_k(m)
    sn, cn, dn = jacobi_sncndn(quarter, m)
    assert sn == pytest.approx(1.0, abs=1e-12)
    assert cn == pytest.approx(0.0, abs=1e-12)
    assert dn == pytest.approx(math.sqrt(1.0 - m), abs=1e-12)


def test_periodicity():
    rng = np.random.default_rng(7)
    for m in (0.2, 0.6, 0.99):
        period = 4.0 * complete_k(m)
        xs = rng.uniform(-10, 10, 64)
        s0, c0, d0 = jacobi_sncndn(xs, m)
        s1, c1, d1 = jacobi_sncndn(xs + period, m)
        assert np.max(np.abs(s1 - s0)) < 1e-10
        assert np.max(np.abs(c1 - c0)) < 1e-10
        # dn has the half period
        s2, c2, d2 = jacobi_sncndn(xs + period / 2, m)
        assert np.max(np.abs(d2 - d0)) < 1e-10


def test_parity():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 20, 128)
    for m in (0.3, 0.8):
        sp, cp, dp = jacobi_sncndn(xs, m)
        sm, cm, dm = jacobi_sncndn(-xs, m)
        assert np.max(np.abs(sm + sp)) < 1e-12
        assert np.max(np.abs(cm - cp)) < 1e-12
        assert np.max(np.abs(dm - dp)) < 1e-12


def test_derivative_identity():
    # d(sn)/dx = cn * dn by central differences
    h = 1e-5
    for m in (0.25, 0.75):
        for x in (-1.7, 0.4, 2.9):
            s_p, _, _ = jacobi_sncndn(x + h, m)
            s_m, _, _ = jacobi_sncndn(x - h, m)
            _, cn, dn = jacobi_sncndn(x, m)
            assert (s_p - s_m) / (2 * h) == pytest.approx(cn * dn, abs=1e-6)


def test_against_scipy():
    rng = np.random.default_rng(3)
    for m in (0.05, 0.5, 0.95):
        xs = rng.uniform(-40, 40, 100)
        sn, cn, dn = jacobi_sncndn(xs, m)
        sn_s, cn_s, dn_s, _ = ellipj(xs, m)
        assert np.max(np.abs(sn - sn_s)) < 1e-12
        assert np.max(np.abs(cn - cn_s)) < 1e-12
        assert np.max(np.abs(dn - dn_s)) < 1e-12
    assert complete_k(0.73) == pytest.approx(float(ellipk(0.73)), abs=1e-14)


def test_against_mpmath():
    # an independent implementation at 30 digits, imported for this test only
    import mpmath

    with mpmath.workdps(30):
        for m in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            k = complete_k(m)
            assert k == pytest.approx(float(mpmath.ellipk(m)), rel=1e-14)
            xs = np.linspace(0.0, 8.0 * k, 33)  # two periods of sn and cn
            array_path = np.array(jacobi_sncndn(xs, m))
            for x, row in zip(xs, array_path.T):
                exact = [float(mpmath.ellipfun(f, x, m=m)) for f in ("sn", "cn", "dn")]
                assert np.max(np.abs(row - exact)) < 1e-13
                assert np.max(np.abs(np.array(jacobi_sncndn(float(x), m)) - exact)) < 1e-13


def test_large_argument_reduction():
    m = 0.5
    period = 4.0 * complete_k(m)
    x = 0.37
    far = x + 1000 * period
    near = jacobi_sncndn(x, m)
    reduced = jacobi_sncndn(far, m)
    for a, b in zip(near, reduced):
        assert a == pytest.approx(b, abs=5e-11)


def test_sn_squared_against_mpmath():
    import mpmath

    with mpmath.workdps(30):
        for m in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
            xs = np.linspace(-2.0 * complete_k(m), 2.0 * complete_k(m), 33)  # two periods
            array_path = sn_squared(xs, m)
            for x, value in zip(xs, array_path):
                exact = float(mpmath.ellipfun("sn", x, m=m) ** 2)
                assert abs(value - exact) < 1e-13
                assert abs(sn_squared(float(x), m) - exact) < 1e-13


def test_sn_squared_scalar_path_matches_array_path():
    rng = np.random.default_rng(20261019)
    xs = rng.uniform(-50.0, 50.0, 2000)
    ms = rng.uniform(0.01, 0.999, 2000)
    worst = 0.0
    for x, m in zip(xs, ms):
        scalar = sn_squared(float(x), float(m))
        assert type(scalar) is float
        worst = max(worst, abs(scalar - sn_squared(np.array([x]), float(m))[0]))
    assert worst < 4e-15


@settings(max_examples=300, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(0.0, 1.0))
def test_sn_squared_is_the_square_of_sn(x, m):
    value = sn_squared(x, m)
    assert abs(value - jacobi_sncndn(x, m)[0] ** 2) < 1e-14
    assert abs(sn_squared(-x, m) - value) < 1e-14
    if m < 1.0:
        assert abs(sn_squared(x + 2.0 * complete_k(m), m) - value) < 1e-14
