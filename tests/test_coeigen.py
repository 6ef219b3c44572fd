import math
import time

import mpmath as mp
import pytest

from glspec.core import DomainError, make_params
from glspec import coeigen as ce
from glspec import density as d

from oracles import (classical_laguerre, r_coeffs_bell_mp, richardson_derivative,
                     w_density_mp)


def test_r0_is_one(p_half):
    assert ce.r_eval_bell(p_half, 0, 0.7) == 1.0
    assert ce.r_eval_bell(p_half, 0, 5.0) == 1.0


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
    w = d.weight_e_ab(p_half)
    for n in (1, 2, 4):
        for x in (0.2, 1.0):
            bell = ce.r_eval_bell(p_half, n, x) * d.weight_eval(w, x)
            assert w_density_mp(0.5, 1.0, n, 0, x) == pytest.approx(
                bell, rel=1e-10)


def test_w0_is_the_weight(p_half):
    w = d.weight_e_ab(p_half)
    for x in (0.4, 1.7):
        assert ce.w_eval(p_half, 0, x) == pytest.approx(
            d.weight_eval(w, x), rel=1e-13)


def test_w_classical_value():
    p = make_params(1, 0)
    assert ce.w_eval(p, 2, 1.0) == pytest.approx(
        -0.5 * math.exp(-1.0), rel=1e-13)


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
    w = d.weight_e_ab(p_half)
    assert ce.w_eval_mellin(p_half, 0, 1.0) == pytest.approx(
        d.weight_eval(w, 1.0), rel=1e-12)


def test_representation_cross_agreement(p_half_ext, p_three_quarter_ext):
    # the table route, the Mellin route and the mpmath Wright series agree
    # pointwise (extended precision)
    for p in (p_half_ext, p_three_quarter_ext):
        w = d.weight_e_ab(p)
        for n in (2, 5, 8):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                bell = ce.r_eval_bell(p, n, x) * d.weight_eval(w, x)
                wr = w_density_mp(p.alpha, p.beta, n, 0, x)
                me = ce.w_eval_mellin(p, n, x)
                scale = max(abs(bell), 1e-280)
                assert abs(bell - wr) / scale < 1e-7, (p.alpha, n, x)
                assert abs(bell - me) / scale < 1e-7, (p.alpha, n, x)


def test_mellin_specific_points(p_half, p_three_quarter):
    w = d.weight_e_ab(p_half)
    bell = ce.r_eval_bell(p_half, 2, 1.5) * d.weight_eval(w, 1.5)
    assert ce.w_eval_mellin(p_half, 2, 1.5) == pytest.approx(bell, rel=1e-8)
    w2 = d.weight_e_ab(p_three_quarter)
    bell2 = ce.r_eval_bell(p_three_quarter, 5, 3.0) * d.weight_eval(w2, 3.0)
    assert ce.w_eval_mellin(p_three_quarter, 5, 3.0) == pytest.approx(
        bell2, rel=1e-7)


def test_contour_abscissa_domain(p_half):
    with pytest.raises(DomainError):
        ce.w_eval_mellin(p_half, 1, 1.0, ce.ContourSpec(-4.0, 0.1, 50.0))


def test_rodrigues_oracle(p_half):
    # n-fold Richardson differentiation of x^n e(x) against n! W_n(x)
    w = d.weight_e_ab(p_half)

    for n in (1, 2, 3, 4):
        x = 1.1
        h = 1e-2
        num = richardson_derivative(
            lambda t, n=n: t ** n * d.weight_eval(w, t), x, n, h0=h)
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


@pytest.mark.parametrize("alpha, beta, n", [(2.0 / 3.0, 0.0, 40), (0.75, 0.5, 37),
                                            (1.0 / math.sqrt(2.0), 0.3, 40),
                                            (0.1, 0.0, 30)])
def test_r_coeffs_correctly_rounded(alpha, beta, n):
    p = make_params(alpha, beta)
    got = ce.r_coeffs(p, n)
    ref = r_coeffs_bell_mp(p, n)
    assert len(got) == n + 1
    for j, (c, r) in enumerate(zip(got, ref)):
        assert abs(mp.mpf(c) - r) <= 2e-16 * abs(r), (j, c)


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


def test_table_extends_once_per_order(monkeypatch):
    p = make_params(0.61, 0.37)
    ce._tables.pop(p, None)
    calls = []
    extend = ce._extend

    def spy(rows, params, n):
        calls.append((id(rows), len(rows), n))
        extend(rows, params, n)

    monkeypatch.setattr(ce, "_extend", spy)
    for n in range(41):
        ce.r_coeffs_mp(p, n)
    rows_id = calls[0][0]
    assert calls == [(rows_id, n, n) for n in range(1, 41)]
    assert ce._tables[p].dps == 32
    # more digits rebuild the table once; fewer reuse it
    with mp.workdps(40):
        ce.r_coeffs_mp(p, 40)
    with mp.workdps(20):
        ce.r_coeffs_mp(p, 40)
    assert ce._tables[p].dps == 48
    assert len(calls) == 41 and calls[-1][0] != rows_id


def test_tables_held_are_bounded():
    fresh = [make_params(0.55 + 0.001 * i, 0.2) for i in range(ce.TABLES_HELD + 3)]
    for p in fresh:
        ce.r_coeffs_mp(p, 3)
    assert len(ce._tables) == ce.TABLES_HELD
    assert fresh[0] not in ce._tables and fresh[-1] in ce._tables


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
