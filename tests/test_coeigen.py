import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from glspec.core import COND_THRESHOLD, DomainError, make_params
from glspec import coeigen as ce
from glspec import eigen as eg
from glspec import density as d

from oracles import (classical_laguerre, r_coeffs_bell_mp, richardson_derivative,
                     w_coeffs_exact, w_density_mp)


def test_r0_is_one(p_half):
    assert ce.r_eval_bell(p_half, 0, 0.7) == 1.0
    assert ce.r_eval_bell(p_half, 0, 5.0) == 1.0


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0 / 3.0, 2.0), (1.0, 0.0)])
def test_r_eval_bell_on_arrays(alpha, beta):
    # y = x^(1/alpha) is np.power on an array, the float ** on a scalar
    p = make_params(alpha, beta)
    xs = np.linspace(0.05, 12.0, 30).reshape(5, 6)
    for n in (0, 5, 25):
        got = ce.r_eval_bell(p, n, xs)
        assert got.shape == xs.shape
        want = [ce.r_eval_bell(p, n, float(x)) for x in xs.ravel()]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)
    with pytest.raises(DomainError):
        ce.r_eval_bell(p, 3, np.array([1.0, 0.0]))


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5), (0.41, 1.3)])
def test_r_eval_bell_arrays_bitwise_past_float64(alpha, beta, monkeypatch):
    # past COND_THRESHOLD both tiers take the point x^(1/alpha) from one
    # cached dyadic value, so the array value is bitwise the scalar one
    # there, whether the double-double tier keeps it or the exact tier
    # redoes it
    from glspec import specfun as sf
    escalated = []
    horner_exact = sf._horner_exact
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    p = make_params(alpha, beta)
    xs = np.geomspace(0.05, 12.0, 48)
    kept = 0
    for n in (20, 40):
        cs = ce.r_coeffs(p, n)[::-1]
        ys = np.power(xs, 1.0 / alpha)
        past = ~(np.polyval(np.abs(cs), ys) <= COND_THRESHOLD * np.abs(np.polyval(cs, ys)))
        escalated.clear()
        got = ce.r_eval_bell(p, n, xs)
        kept += int(past.sum()) - len(escalated)
        want = [ce.r_eval_bell(p, n, float(x)) for x in xs[past]]
        assert got[past].tolist() == want, n
    assert kept >= 10


def test_classical_dispatch():
    p = make_params(1, 0)
    for x in (0.2, 1.0, 3.5):
        assert ce.r_eval_bell(p, 1, x) == pytest.approx(1.0 - x, rel=1e-14)
        assert ce.r_eval_bell(p, 4, x) == pytest.approx(
            classical_laguerre(4, 0.0, x), rel=1e-12)


def test_r1_closed_form(p_half):
    # R_1(x) = beta + 1/alpha - x^(1/alpha)/alpha
    for x in (0.3, 1.0, 2.0):
        assert ce.r_eval_bell(p_half, 1, x) == pytest.approx(
            3.0 - 2.0 * x * x, rel=1e-13)


def test_bell_vs_wright_cross(p_half):
    for n in (1, 2, 4):
        for x in (0.2, 1.0):
            bell = ce.r_eval_bell(p_half, n, x) * d.weight_eval(p_half, x)
            assert w_density_mp(0.5, 1.0, n, 0, x) == pytest.approx(
                bell, rel=1e-10)


def test_w0_is_the_weight(p_half):
    for x in (0.4, 1.7):
        assert ce.w_eval(p_half, 0, x) == pytest.approx(
            d.weight_eval(p_half, x), rel=1e-13)


def test_w_classical_value():
    p = make_params(1, 0)
    assert ce.w_eval(p, 2, 1.0) == pytest.approx(
        -0.5 * math.exp(-1.0), rel=1e-13)


def test_w_eval_refuses_an_array_before_its_sum(monkeypatch):
    # one point per call: an array x is a DomainError before any Horner
    # work; float and np.float64 x give the same value
    p = make_params(0.5, 1.0)
    value = ce.w_eval(p, 3, 2.0)
    assert ce.w_eval(p, 3, np.float64(2.0)) == value

    def no_sum(*args, **kwargs):
        raise AssertionError("Horner sum started")

    monkeypatch.setattr(ce, "_w_horner", no_sum)
    for x in (np.array([2.0]), np.array([0.5, 2.0, 3.0])):
        with pytest.raises(DomainError):
            ce.w_eval(p, 3, x)


def test_w_oracle_highprec(p_half):
    # frozen from the 60-digit direct summation
    assert ce.w_eval(p_half, 2, 1.5) == pytest.approx(
        -2.2076434937136202, rel=1e-11)
    got = ce.w_eval(p_half, 5, 3.0)
    assert got == pytest.approx(w_density_mp(0.5, 1.0, 5, 0, 3.0), rel=1e-9)


def test_w_derivative_finite_difference(p_half, p_three_quarter):
    got = ce.w_eval(p_half, 3, 0.8, 1)
    fd = richardson_derivative(lambda t: ce.w_eval(p_half, 3, t),
                               0.8, 1, h0=1e-2)
    assert got == pytest.approx(fd, rel=1e-7)
    got = ce.w_eval(p_three_quarter, 30, 0.2, 1)
    fd = richardson_derivative(
        lambda t: ce.w_eval(p_three_quarter, 30, t), 0.2, 1, h0=2e-3)
    assert got == pytest.approx(fd, rel=1e-5)


def test_w_classical_derivative():
    p = make_params(1, 0)
    x = 1.3
    got = ce.w_eval(p, 2, x, 1)
    fd = richardson_derivative(lambda t: ce.w_eval(p, 2, t), x, 1)
    assert got == pytest.approx(fd, rel=1e-9)


def test_mellin_matches_weight_at_n0(p_half):
    assert ce.w_eval_mellin(p_half, 0, 1.0) == pytest.approx(
        d.weight_eval(p_half, 1.0), rel=1e-12)


def test_representation_cross_agreement(p_half_ext, p_three_quarter_ext):
    # the table route, the Mellin route and the mpmath Wright series agree
    # pointwise (extended precision)
    for p in (p_half_ext, p_three_quarter_ext):
        for n in (2, 5, 8):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                bell = ce.r_eval_bell(p, n, x) * d.weight_eval(p, x)
                wr = w_density_mp(p.alpha, p.beta, n, 0, x)
                me = ce.w_eval_mellin(p, n, x)
                scale = max(abs(bell), 1e-280)
                assert abs(bell - wr) / scale < 1e-7, (p.alpha, n, x)
                assert abs(bell - me) / scale < 1e-7, (p.alpha, n, x)


def test_mellin_specific_points(p_half, p_three_quarter):
    bell = ce.r_eval_bell(p_half, 2, 1.5) * d.weight_eval(p_half, 1.5)
    assert ce.w_eval_mellin(p_half, 2, 1.5) == pytest.approx(bell, rel=1e-8)
    bell2 = ce.r_eval_bell(p_three_quarter, 5, 3.0) * d.weight_eval(p_three_quarter, 3.0)
    assert ce.w_eval_mellin(p_three_quarter, 5, 3.0) == pytest.approx(
        bell2, rel=1e-7)


def test_mellin_route_domain(p_half):
    # W_n lives on x > 0: the Mellin route refuses x <= 0 before its contour
    for x in (0.0, -1.0):
        with pytest.raises(DomainError):
            ce.w_eval_mellin(p_half, 1, x)


def test_rodrigues_oracle(p_half):
    # n-fold Richardson differentiation of x^n e(x) against n! W_n(x)
    for n in (1, 2, 3, 4):
        x = 1.1
        h = 1e-2
        num = richardson_derivative(
            lambda t, n=n: t ** n * d.weight_eval(p_half, t), x, n, h0=h)
        assert num == pytest.approx(
            math.factorial(n) * ce.w_eval(p_half, n, x), rel=1e-5), n


def test_crude_bound_domain_and_ratios(p_half, p_three_quarter):
    with pytest.raises(DomainError):
        ce.w_crude_bound_check(p_half, 20, 0, 100.0)
    rr = [ce.w_crude_bound_check(p_half, n, 0, 0.5)["ratio"]
          for n in (20, 40, 80)]
    assert all(math.isfinite(r) and r >= 0.0 for r in rr)
    assert max(rr) <= 1.0  # bounded envelope along the tested sequence
    r = ce.w_crude_bound_check(p_three_quarter, 30, 1, 0.2)
    assert math.isfinite(r["ratio"])


def test_trivial_crude_bound_small_n(p_half):
    r = ce.w_crude_bound_check(p_half, 5, 0, 0.3)
    assert math.isfinite(r["ratio"])


# --------------------------------------------------------------------------
# Coefficient table and the R_n e route of W_n
# --------------------------------------------------------------------------

def _w_oracle(alpha, beta, n, x):
    """w_density_mp with terms and digits enough for x^(1/alpha) <= 36."""
    y = x ** (1.0 / alpha)
    return w_density_mp(alpha, beta, n, 0, x, kmax=int(4 * y + 2 * n + 60),
                        dps=60 + int(y) + n)


def _r_oracle(params, n, x):
    """R_n(x) from the 80-digit partial-Bell coefficients."""
    with mp.workdps(80):
        y = mp.mpf(x) ** (1 / mp.mpf(params.alpha))
        acc = mp.mpf(0)
        for c in reversed(r_coeffs_bell_mp(params, n)):
            acc = acc * y + c
        return float(acc)


#: an irrational pair, alpha = 1, beta at its boundary 1 - 1/alpha, beta = 0
_EXACT_PAIRS = [(0.4123456789, 1.37), (1.0, 0.5), (1.0 / math.sqrt(2.0), 1.0 - math.sqrt(2.0)),
                (0.75, 0.0), (0.1, 0.0)]


@pytest.mark.parametrize("alpha, beta, n", [(2.0 / 3.0, 0.0, 40), (0.75, 0.5, 37),
                                            (1.0 / math.sqrt(2.0), 0.3, 40),
                                            (0.1, 0.0, 30), (0.4123456789, 1.37, 40),
                                            (1.0 / math.sqrt(2.0), 1.0 - math.sqrt(2.0), 33)])
def test_r_coeffs_correctly_rounded(alpha, beta, n):
    p = make_params(alpha, beta)
    got = ce.r_coeffs(p, n)
    ref = r_coeffs_bell_mp(p, n)
    assert len(got) == n + 1
    for j, (c, r) in enumerate(zip(got, ref)):
        assert c == float(r), (j, c)


@pytest.mark.parametrize("alpha, beta", _EXACT_PAIRS)
def test_r_and_w_faces_are_one_rounding_of_exact_values(alpha, beta):
    # the double-double rows of R_n and W_n^(q): hi is the exact coefficient
    # correctly rounded, and hi + lo carries it to 2^-106
    p = make_params(alpha, beta)
    for n in (0, 1, 7, 25):
        for q in (0, 1, 2):
            hi, lo = ce._w_coeffs(p, n, q)
            exact = w_coeffs_exact(p, n, q)
            assert len(hi) == len(exact) == n + q + 1
            for h, lo_j, c in zip(hi, lo, exact):
                assert h == float(c), (n, q)
                if abs(c) >= Fraction(2) ** -969:
                    assert abs(Fraction(h) + Fraction(lo_j) - c) <= abs(c) / 2 ** 106, (n, q)
        assert ce.r_coeffs(p, n).tolist() == ce._w_coeffs(p, n, 0)[0].tolist()


@pytest.mark.parametrize("alpha, beta", [(0.4123456789, 1.37), (0.75, 0.0),
                                         (1.0 / math.sqrt(2.0), 1.0 - math.sqrt(2.0))])
def test_r_rows_at_sixty_digits(alpha, beta):
    # the exact row of R_30, each entry rounded once at 60 digits
    p = make_params(alpha, beta)
    nums, den = ce._exact(p, 30)
    with mp.workdps(60):
        got = [mp.fdiv(c, den) for c in nums]
    ref = r_coeffs_bell_mp(p, 30, dps=80)
    for c, r in zip(got, ref):
        assert abs(c - r) <= mp.mpf("1e-58") * abs(r)


def test_r_float_faces_do_no_mpmath_arithmetic(monkeypatch):
    # a fresh irrational pair: its exact rows and their float64 and
    # double-double rounding form no mpmath number (P's g_k row does)
    def no_mpmath(*args, **kwargs):
        raise AssertionError("an mpmath number was formed")

    monkeypatch.setattr(mp.mp, "make_mpf", no_mpmath)
    monkeypatch.setattr(type(mp.mpf(1)), "__new__", no_mpmath)
    p = make_params(0.4123456789 + 2.0 ** -40, 1.37)
    assert ce.r_coeffs(p, 60).shape == (61,)
    with pytest.raises(AssertionError):
        eg._exact(p, 60, 0)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5), (0.4123456789, 1.37)])
def test_w_derivatives_from_exact_rows_match_the_oracle(alpha, beta):
    # at extended precision every point goes through the mpmath rows of
    # _w_coeffs_mp, one rounding of the exact coefficients
    p = make_params(alpha, beta, precision="ext128")
    for q in (1, 2):
        for n, x in ((5, 0.7), (20, 2.0), (33, 4.5)):
            ref = w_density_mp(alpha, beta, n, q, x)
            assert ce.w_eval(p, n, x, q) == pytest.approx(ref, rel=1e-13, abs=0.0), (q, n, x)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (2.0 / 3.0, 0.0), (0.75, 0.5),
                                         (1.0, 0.0), (1.0 / math.sqrt(2.0), 0.3)])
def test_w_eval_beyond_one_matches_wright_oracle(alpha, beta):
    p = make_params(alpha, beta)
    for n in (1, 17, 40):
        for x in (1.2, 3.1, 6.0):
            ref = _w_oracle(alpha, beta, n, x)
            assert ce.w_eval(p, n, x) == pytest.approx(ref, rel=1e-8), (n, x)


def test_near_tolerance_points(p_three_quarter):
    # the Horner sum of R_37(1.01) has condition 4.8e6: coefficient errors show
    assert ce.r_eval_bell(p_three_quarter, 37, 1.01) == pytest.approx(
        _r_oracle(p_three_quarter, 37, 1.01), rel=1e-9)
    assert ce.w_eval(p_three_quarter, 38, 0.675) == pytest.approx(
        _w_oracle(0.75, 0.5, 38, 0.675), rel=1e-9)


def test_w_below_double_range_is_signed_zero():
    # W_5(2) at alpha = 0.1 is -9.06e-424: R_5(2) = -9.2e17 times e(2) = 1e-441
    p = make_params(0.1, 0.0)
    t0 = time.perf_counter()
    got = ce.w_eval(p, 5, 2.0)
    assert time.perf_counter() - t0 < 1.0
    assert got == 0.0 and math.copysign(1.0, got) == -1.0


def test_horner_past_float64_range():
    # R_150(6) at (1/2, 1): the float64 Horner pass keeps no correct digit,
    # so its condition estimate (> 1e13) cannot size the escalation
    p = make_params(0.5, 1.0)
    assert ce.w_eval(p, 150, 6.0) == pytest.approx(
        _w_oracle(0.5, 1.0, 150, 6.0), rel=1e-8)
    # R_50(6) at alpha = 0.1 overflows float64; e(6) = e^(-6^10) wins in W
    p = make_params(0.1, 0.0)
    assert ce.r_eval_bell(p, 50, 6.0) == math.inf
    assert ce.w_eval(p, 50, 6.0) == 0.0


def test_overflowing_power_gives_limits():
    # x^(1/alpha) = 1e400 is past the double range: R_n is +-inf, W_n 0
    p = make_params(0.01, 0)
    assert ce.r_eval_bell(p, 0, 1e4) == 1.0
    assert ce.r_eval_bell(p, 1, 1e4) == -math.inf
    assert ce.r_eval_bell(p, 2, 1e4) == math.inf
    for n in (0, 1, 5, 40):
        assert ce.w_eval(p, n, 1e4) == 0.0


# --------------------------------------------------------------------------
# Derivatives W_n^(q) from the table
# --------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5), (0.1, 0.0), (1.0, 0.0),
                                         (1.0 / math.sqrt(2.0), 0.3)])
def test_w_derivatives_match_wright_oracle(alpha, beta):
    p = make_params(alpha, beta)
    for n in (0, 5, 30):
        for q in (1, 2, 3):
            for y in (0.05, 1.5, 12.0, 60.0):
                x = y ** alpha
                ref = w_density_mp(alpha, beta, n, q, x)
                if abs(ref) > 1e-300:
                    assert ce.w_eval(p, n, x, q) == pytest.approx(ref, rel=1e-8, abs=0.0), \
                        (n, q, x)


def test_w_derivative_specific_points():
    # W_10^(3)(2) at (1/2, 1); at (0.1, 0) the same value is below the double range
    assert ce.w_eval(make_params(0.5, 1.0), 10, 2.0, 3) == pytest.approx(
        21887.1009976769, rel=1e-10)
    assert abs(ce.w_eval(make_params(0.1, 0.0), 10, 2.0, 3)) < 1e-300
    # W_0' = e (ba - y / alpha) / x vanishes at x = 1 when beta = 1
    for alpha in (0.5, 0.95):
        assert ce.w_eval(make_params(alpha, 1.0), 0, 1.0, 1) == 0.0
