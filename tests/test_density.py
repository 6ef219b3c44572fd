import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec.core import DomainError, make_params, monomial, poly_fn
from glspec import density as d
from glspec.specfun import log_gamma

from oracles import (lambda_contour_mp, lambda_series_mp, lambda_sine_form,
                     mellin_e_quad, quad_against_weight)


def test_weight_classical_case():
    p = make_params(1, 0)
    w = d.weight_e_ab(p)
    for x in (0.3, 1.0, 4.0):
        assert d.weight_eval(w, x) == pytest.approx(math.exp(-x), rel=1e-14)


def test_weight_value_gamma_oracle(p_half):
    # x^2 e^{-x^2} / (alpha Gamma(1.5)) at x = 1
    w = d.weight_e_ab(p_half)
    expect = math.exp(-1.0) / (0.5 * math.gamma(1.5))
    assert d.weight_eval(w, 1.0) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        d.weight_eval(w, 0.0)


def test_weight_unit_mass_by_quadrature(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        mass = quad_against_weight(p.alpha, p.beta, lambda x: 1.0)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_moments(p_half):
    assert d.moment(p_half, 0) == 1.0
    p1 = make_params(1, 0)
    assert d.moment(p1, 3) == pytest.approx(6.0, rel=1e-14)
    # Gamma(2.5)/Gamma(1.5) = 1.5
    assert d.moment(p_half, 2) == pytest.approx(1.5, rel=1e-14)


def test_moment_quadrature_cross(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        for k in range(0, 21, 4):
            q = quad_against_weight(p.alpha, p.beta, lambda x, k=k: x ** k,
                                    dps=35, upper=120.0)
            assert q == pytest.approx(d.moment(p, k), rel=1e-9), (p.alpha, k)


def test_mellin_lambda_normalization(p_half):
    assert d.mellin_lambda(p_half, 0).real == pytest.approx(1.0, rel=1e-13)


def test_mellin_lambda_classical_values():
    p = make_params(1, 2)
    for n in (1, 2, 5):
        expect = math.exp(math.lgamma(n + 1.0) + math.lgamma(3.0)
                          - math.lgamma(n + 3.0))
        assert d.mellin_lambda(p, n).real == pytest.approx(expect, rel=1e-13)


def test_mellin_lambda_domain(p_half):
    with pytest.raises(DomainError):
        d.mellin_lambda(p_half, -1.2)


def test_mellin_factorization(p_half):
    s = 0.7 + 0.3j
    lhs = d.mellin_lambda(p_half, s) * d.mellin_e(p_half, s)
    assert abs(lhs - cmath.exp(log_gamma(s + 1.0))) <= 1e-13 * abs(lhs)


def test_mellin_e_numeric_cross(p_half):
    for s in (0.3, 1.7 + 0.4j, -0.2 + 1.0j):
        got = mellin_e_quad(p_half.alpha, p_half.beta, s)
        assert abs(got - d.mellin_e(p_half, s)) <= 1e-11 * abs(got)


def test_lambda_at_zero(p_half):
    # k = 0 residue: Gamma(a b + 1)/Gamma(a b + 1 - a)
    expect = math.gamma(1.5) / math.gamma(1.0)
    assert d.lambda_value(p_half, 0.0) == pytest.approx(expect, rel=1e-14)


def test_lambda_mass_and_moments(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        nodes, wts, lam, _ = d._lambda_grid(p)
        assert float((wts * lam).sum()) == pytest.approx(1.0, abs=5e-11)
        m2 = float((wts * lam * nodes ** 2).sum())
        assert m2 == pytest.approx(d.mellin_lambda(p, 2).real, rel=5e-10)


def test_lambda_nonnegative_grid(p_half):
    zs = np.linspace(0.0, 12.0, 121)
    vals = [d.lambda_value(p_half, float(z)) for z in zs]
    assert min(vals) >= 0.0


def test_lambda_series_vs_contour(p_half, p_three_quarter, p_half_ext,
                                  p_three_quarter_ext):
    # the contour alone against the mpmath residue series; lambda is float64
    # at every precision, so ext128 gives the double values bit for bit
    zs = np.array([0.0, 0.5, 2.5, 4.0, 6.0, 12.0])
    for p, p_ext in ((p_half, p_half_ext), (p_three_quarter, p_three_quarter_ext)):
        for z in (2.5, 4.0, 6.0):
            s = lambda_series_mp(p.alpha, p.beta, z)
            m = d.lambda_mellin_value(p, z)
            assert m == pytest.approx(s, rel=2e-9), (p.alpha, z)
        assert d.lambda_values(p_ext, zs).tolist() == d.lambda_values(p, zs).tolist()


def test_lambda_below_double_range_is_zero():
    # at (0.9, 0) the log-integrand at the saddle is -2,289 for z = 3; at
    # z = 6 the saddle lies near a = 2.4e7, and the contour must pass there
    from scipy.special import digamma
    p = make_params(0.9, 0.0)
    for z in (3.0, 6.0):
        assert d.lambda_value(p, z) == 0.0
        a0, _ = d._saddle(p, np.array([math.log(z)]))
        slope = (-math.log(z) + digamma(a0[0])
                 - 0.9 * digamma(0.9 * a0[0] + p.bar_beta_alpha))
        assert abs(slope) <= 1e-10 * (1.0 + abs(math.log(z)))


def test_lambda_sine_form_nondegenerate():
    # away from integer a(b-1) the sine form is a valid cross-check
    p = make_params(0.6, 1.3)
    for z in (0.5, 2.0, 4.0):
        assert lambda_sine_form(p.alpha, p.beta, z) == pytest.approx(
            d.lambda_value(p, z), rel=1e-8)


def test_lambda_alpha_one_dispatch():
    with pytest.raises(DomainError):
        d.lambda_values(make_params(1, 0), np.array([0.5, 1.0]))


LAMBDA_ORACLE_PAIRS = [(0.5, 1.0), (0.75, 0.5), (1.0 / math.sqrt(2.0), 0.3),
                       (1.0 / math.sqrt(2.0), 1.0 - math.sqrt(2.0) + 1e-9),
                       (0.875, 1.38)]


@pytest.mark.parametrize("alpha, beta", LAMBDA_ORACLE_PAIRS)
def test_lambda_values_vs_oracles(alpha, beta):
    # series oracle up to z = 2, contour oracle from z = 2; both at z = 2
    p = make_params(alpha, beta)
    zs = np.array([0.0, 0.3, 1.0, 2.0, 2.75, 4.0, 5.0, 6.0, 9.0, 12.0])
    got = d.lambda_values(p, zs)
    for z, v in zip(zs.tolist(), got.tolist()):
        refs = ([lambda_series_mp(alpha, beta, z)] if z <= 2.0 else []) \
            + ([lambda_contour_mp(alpha, beta, z)] if z >= 2.0 else [])
        for ref in refs:
            if abs(ref) > 1e-300:
                assert v == pytest.approx(ref, rel=1e-10, abs=0.0), (z, ref)


def test_lambda_near_alpha_one_vs_oracle():
    # at (0.95, 1) the residue series cancels at every z
    p = make_params(0.95, 1.0)
    zs = np.array([0.05, 0.5, 1.0])
    for z, v in zip(zs.tolist(), d.lambda_values(p, zs).tolist()):
        assert v == pytest.approx(lambda_series_mp(0.95, 1.0, z), rel=1e-12, abs=0.0), z


def test_lambda_values_equal_scalar_calls(p_half, p_three_quarter):
    # series nodes, contour nodes, z = 0 and values below the double range,
    # in any batch and any shape
    for p in (p_half, p_three_quarter, make_params(0.95, 1.0)):
        zs = np.concatenate([[0.0], np.linspace(0.05, 14.0, 60)])
        got = d.lambda_values(p, zs)
        assert got.tolist() == [d.lambda_value(p, float(z)) for z in zs]
        assert d.lambda_values(p, zs[::-1].reshape(-1, 1)).ravel().tolist() \
            == got[::-1].tolist()
        assert d.lambda_mellin_value(p, 9.0) == d.lambda_values(p, np.array([9.0]))[0]


def test_markov_preserves_constants(p_half):
    from glspec.core import const_fn
    assert d.markov_lambda_apply(p_half, const_fn(), 2.0) == pytest.approx(1.0)
    # quadrature route as well (function without power expansion)
    assert d.markov_lambda_apply(p_half, lambda x: 1.0, 2.0) == pytest.approx(
        1.0, abs=1e-9)


def test_markov_multiplier_on_monomials(p_half):
    x = 2.0
    got = d.markov_lambda_apply(p_half, monomial(1), x)
    assert got == pytest.approx(d.mellin_lambda(p_half, 1).real * x, rel=1e-13)
    # quadrature route must agree with the multiplier route
    got_q = d.markov_lambda_apply(p_half, lambda y: y, x)
    assert got_q == pytest.approx(got, rel=1e-9)


def test_markov_maps_laguerre_to_eigenpolynomial(p_half):
    from glspec.eigen import laguerre_eval, p_coeffs, p_eval
    seq = p_coeffs(p_half, 2)
    for x in (0.5, 1.0, 3.0):
        got = d.markov_lambda_apply(p_half, lambda y: laguerre_eval(2, 0.0, y), x)
        assert got == pytest.approx(p_eval(seq, 2, x), rel=2e-9, abs=1e-10)


def test_markov_identity_at_alpha_one():
    p = make_params(1, 0)
    assert d.markov_lambda_apply(p, lambda x: x * x, 1.7) == 1.7 ** 2
    # beta > 0: beta-kernel with the right multiplier action
    p2 = make_params(1, 2)
    got = d.markov_lambda_apply(p2, lambda y: y ** 2, 1.5)
    assert got == pytest.approx(d.mellin_lambda(p2, 2).real * 1.5 ** 2, rel=1e-12)


def test_adjoint_preserves_constants(p_half):
    assert d.markov_lambda_adjoint_apply(p_half, lambda x: 1.0, 1.3) == \
        pytest.approx(1.0, abs=1e-9)


def test_adjoint_maps_coeigen_to_laguerre(p_half):
    from glspec.coeigen import r_fn
    from glspec.eigen import laguerre_eval
    x = 1.3
    got = d.markov_lambda_adjoint_apply(p_half, r_fn(p_half, 1), x)
    assert got == pytest.approx(1.0 - x, rel=1e-8)  # = -0.3
    for x in (0.4, 0.9, 1.7, 2.6, 4.0):
        got = d.markov_lambda_adjoint_apply(p_half, r_fn(p_half, 2), x)
        assert got == pytest.approx(laguerre_eval(2, 0.0, x), rel=2e-8,
                                    abs=1e-9), x


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7))
def test_markov_contraction(coeffs):
    # Jensen route: ||Lam f||_{e_ab} <= ||f||_{e(exp)} for the reference
    # exponential weight
    p = make_params(0.5, 1.0)
    f = poly_fn(coeffs)
    lam_pw = tuple((c * d.mellin_lambda(p, pw).real, pw) for c, pw in f.powers)
    from glspec.quad import inner_exact
    lhs = inner_exact(p, lam_pw, lam_pw)
    pe = make_params(1.0, 0.0)
    rhs = inner_exact(pe, f.powers, f.powers)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_multiplier_vertical_decay(p_half):
    # |M(ib)| <= C exp(-(1-a-eps) pi |b| / 2) empirically at b = 5, 10, 20
    eps = 0.05
    rate = (1.0 - p_half.alpha - eps) * math.pi / 2.0
    c0 = abs(d.mellin_lambda(p_half, 5j)) * math.exp(rate * 5.0)
    for b in (10.0, 20.0):
        val = abs(d.mellin_lambda(p_half, 1j * b))
        assert val <= c0 * math.exp(-rate * b) * 1.0001


def test_weight_past_double_range():
    p = make_params(0.01, 0)
    assert d.weight_eval(d.weight_e_ab(p), 1e4) == 0.0
    assert d.log_weight_eval(d.weight_e_ab(p), 1e4) == -math.inf
    # the growing weight overflows to inf, not to an exception
    assert d.weight_eval(d.weight_e_bar(p, 0.005), 1e4) == math.inf
    assert d.weight_eval(d.weight_e_bar(p, 0.005), 2.0) == math.inf


def test_markov_scalar_only_f_matches_vector_twin(p_half):
    # an f that rejects arrays is evaluated node by node, with equal results
    def scalar_f(y):
        return math.exp(-y) if y > 1 else 1.0

    def vector_f(y):
        return np.where(y > 1, np.exp(-np.maximum(y, 1.0)), 1.0)

    for p in (p_half, make_params(1, 2)):
        for x in (0.5, 2.0):
            assert d.markov_lambda_apply(p, scalar_f, x) == pytest.approx(
                d.markov_lambda_apply(p, vector_f, x), rel=1e-14)
