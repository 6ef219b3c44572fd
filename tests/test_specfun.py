import cmath
import math

import numpy as np
import pytest

from glspec.core import DomainError, PoleError, make_params
from glspec import specfun as sf

from oracles import (bell_args, bell_partitions, bell_table, binet_log_gamma,
                     euler_2f1, frak_I_mp, g_kernel_integral, wright_series_mp)


# --------------------------------------------------------------------------
# log-gamma
# --------------------------------------------------------------------------

def test_log_gamma_trivial_values():
    assert abs(sf.log_gamma(1.0)) < 1e-14
    assert sf.log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)),
                                                   rel=1e-14)


def test_log_gamma_against_binet_oracle():
    # frozen from the 80-digit Stirling/Binet oracle
    ref = -1.7566267846037842 + 4.742664438034658j
    got = sf.log_gamma(3 + 4j)
    assert abs(got - ref) <= 1e-13 * abs(ref)
    for z in (12.3 - 7.0j, -5.2 + 2.1j, 0.25 + 0.0j, -2.5 - 130.0j):
        ref = binet_log_gamma(z)
        got = sf.log_gamma(z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), z


def test_log_gamma_recurrence_grid():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-8, 8, size=(100, 2))
    for re, im in zs:
        z = complex(re, im)
        if abs(im) < 1e-3 and re <= 0.5:
            continue
        lhs = cmath.exp(sf.log_gamma(z + 1.0))
        rhs = z * cmath.exp(sf.log_gamma(z))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            sf.log_gamma(z)
    assert sf.rgamma_c(-3.0) == 0.0


def test_log_gamma_large_modulus():
    ref = binet_log_gamma(1e6 + 0.0j)
    assert abs(sf.log_gamma(1e6) - ref) <= 1e-14 * abs(ref)


# --------------------------------------------------------------------------
# 2F1
# --------------------------------------------------------------------------

def test_2f1_at_zero():
    assert sf.gauss_2f1(1.3, 0.2, 0.9, 0.0).value.real == 1.0


def test_2f1_log_closed_form():
    # 2F1(1,1;2;z) = -log(1-z)/z
    r = sf.gauss_2f1(1.0, 1.0, 2.0, 0.5)
    assert r.value.real == pytest.approx(-math.log(0.5) / 0.5, rel=1e-14)


def test_2f1_connection_region_euler_oracle():
    # frozen from the Euler-integral oracle at 40 digits
    assert sf.gauss_2f1(2.0, 1.5, 3.7, 0.6).value.real == pytest.approx(
        1.9544704875342558, rel=1e-12)
    for z in (0.85, 0.93, 0.99):
        got = sf.gauss_2f1(2.0, 1.5, 3.7, z).value.real
        assert got == pytest.approx(euler_2f1(2.0, 1.5, 3.7, z), rel=1e-11)


def test_2f1_euler_cross_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.uniform(0.2, 3.0)
        c = b + rng.uniform(0.3, 2.0)
        a = rng.uniform(0.1, 2.5)
        z = rng.uniform(0.0, 0.97)
        if abs(c - a - b - round(c - a - b)) < 1e-6:
            a += 0.01
        got = sf.gauss_2f1(a, b, c, z).value.real
        assert got == pytest.approx(euler_2f1(a, b, c, z), rel=1e-9)


def test_2f1_near_one_flagged():
    r = sf.gauss_2f1(1.6, 2.1, 3.2, 1.0 - 1e-12)
    assert not r.converged and r.note == "diverging"
    assert math.isfinite(r.value.real)


def test_2f1_domain():
    with pytest.raises(DomainError):
        sf.gauss_2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        sf.gauss_2f1(1.0, 1.0, 2.0, 1.5)


def test_g_assembly_against_integral_oracle(p_half):
    # gt kernel of the generator vs direct quadrature of its defining integral
    a, b = 0.5, 1.0
    y = 0.25
    z = y ** (1.0 / a)
    f21 = sf.gauss_2f1(a * (b + 1.0) + 1.0, a + 1.0, a * (b + 1.0) + 2.0, z)
    g_series = (math.gamma(a) / (b + 1.0 / a + 1.0)) * y ** (b + 1.0 / a + 1.0) \
        * f21.value.real
    g_integral = math.gamma(a) * g_kernel_integral(a, b, y)
    assert g_series == pytest.approx(g_integral, rel=1e-11)


# --------------------------------------------------------------------------
# Wright-type series and entire auxiliaries
# --------------------------------------------------------------------------

def test_wright_n0_is_exp():
    for z in (-10.0, -2.5, 0.3, 7.0):
        r = wright_series_mp(0.5, 1.0, 0, z)
        assert r.real == pytest.approx(math.exp(z), rel=1e-12)


def test_wright_direct_sum_oracle():
    # sum (k+1)(k+2)(-1)^k / k!
    direct = sum((k + 1) * (k + 2) * (-1.0) ** k / math.factorial(k)
                 for k in range(60))
    r = wright_series_mp(1.0, 0.0, 2, -1.0)
    assert r.real == pytest.approx(direct, rel=1e-12)


def test_wright_highprec_oracle():
    # frozen from the 80-digit direct summation (equals -exp(-2) here)
    r = wright_series_mp(0.5, 1.0, 1, -2.0)
    assert r.real == pytest.approx(-0.1353352832366127, rel=1e-11)


def test_frak_I_trivial_and_bessel():
    b, a = 1.0, 0.5
    assert frak_I_mp(a, b, 0.0) == pytest.approx(1.0 / math.gamma(b + 1.0 / a), rel=1e-14)
    from scipy.special import iv
    for x in (0.5, 2.0, 7.0):
        assert frak_I_mp(1.0, 0.0, x) == pytest.approx(
            float(iv(0, 2.0 * math.sqrt(x))), rel=1e-12)


def test_cal_I_trivial_and_bessel(p_half):
    assert sf.cal_I(p_half, 0.0).value.real == 1.0
    from scipy.special import iv
    for p1 in (make_params(1, 0), make_params(1, 0, precision="ext128")):
        for x in (0.5, 2.0, 7.0):
            assert sf.cal_I(p1, x).value.real == pytest.approx(
                float(iv(0, 2.0 * math.sqrt(x))), rel=1e-12)


def test_cal_I_growth_envelope(p_half):
    # positive coefficients: max modulus on |z| = r is attained at z = r
    n, x = 40, 1.0
    val = sf.cal_I(p_half, n * x).value.real
    assert 0 < val <= math.exp(p_half.frak_t * (n * x) ** (1.0 / 1.5))


def test_cal_I_rejects_negative_argument(p_half):
    # the float64 sum is of positive terms; at z < 0 they alternate
    with pytest.raises(DomainError):
        sf.cal_I(p_half, -1.0)


# --------------------------------------------------------------------------
# Bell table (the oracle behind the R_n coefficient checks of test_coeigen)
# --------------------------------------------------------------------------

def test_bell_args_ratio_identity(p_half):
    a = bell_args(0.5, 4)
    assert a[1] == pytest.approx(-2.0)          # = -1/alpha
    assert a[2] == pytest.approx(-2.0 * (1.0 - 2.0))
    assert a[3] == pytest.approx(a[2] * (2.0 - 2.0))


def test_bell_identities(p_half):
    bt = bell_table(p_half, 5)
    a = bt.args
    for k in range(1, 6):
        assert bt.B(k, k) == pytest.approx(a[1] ** k, rel=1e-13)
        assert bt.B(k, 1) == pytest.approx(a[k], rel=1e-13)


def test_bell_against_partition_enumeration(p_half):
    bt = bell_table(p_half, 6)
    a = list(bt.args)
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert bt.B(k, j) == pytest.approx(
                bell_partitions(k, j, a), rel=1e-12, abs=1e-12), (k, j)
    # spec'd example: B_{3,2} = 3 a_1 a_2
    assert bt.B(3, 2) == pytest.approx(3.0 * a[1] * a[2], rel=1e-13)


def test_bell_table_domain():
    with pytest.raises(DomainError):
        bell_table(make_params(1, 0), 3)
    with pytest.raises(DomainError):
        bell_table(make_params(0.5, 1), 0)
