import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec.core import DomainError, make_params, monomial, poly_fn
from glspec import density as d
from glspec.specfun import log_gamma

from oracles import (inner_exact_mp, lambda_contour_mp, lambda_series_mp,
                     lambda_sine_form, mellin_e_quad, quad_against_weight)


def test_weight_classical_case():
    p = make_params(1, 0)
    for x in (0.3, 1.0, 4.0):
        assert d.weight_eval(p, x) == pytest.approx(math.exp(-x), rel=1e-14)


def test_weight_value_gamma_oracle(p_half):
    # x^2 e^{-x^2} / (alpha Gamma(1.5)) at x = 1
    expect = math.exp(-1.0) / (0.5 * math.gamma(1.5))
    assert d.weight_eval(p_half, 1.0) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        d.weight_eval(p_half, 0.0)


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


def test_moment_past_the_double_range(p_half):
    # inf above the double range and 0 below it, as weight_eval
    assert d.moment(p_half, 400) == math.inf
    assert d.moment_s(make_params(0.5, 1000.0), -990.0) == 0.0
    for s in (-1.5, 0.7, 3.5, 20.0):
        with mp.workdps(40):
            ref = mp.gamma(mp.mpf(0.5) * s + 1.5) / mp.gamma(mp.mpf(1.5))
        assert d.moment_s(p_half, s) == pytest.approx(float(ref), rel=1e-15), s


def test_moment_quadrature_cross(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        for k in range(0, 21, 4):
            q = quad_against_weight(p.alpha, p.beta, lambda x, k=k: x ** k,
                                    dps=35, upper=120.0)
            assert q == pytest.approx(d.moment(p, k), rel=1e-9), (p.alpha, k)


def test_moment_s_real_order(p_half, p_three_quarter):
    # real orders down to near -(beta + 1/alpha), against quadrature of the
    # invariant density
    for p in (p_half, p_three_quarter):
        for s in (-0.3, 0.5, 2.7):
            q = quad_against_weight(p.alpha, p.beta, lambda x, s=s: x ** s, dps=35, upper=120.0)
            assert q == pytest.approx(d.moment_s(p, s), rel=1e-9), (p.alpha, s)
        assert d.moment_s(p, 3.0) == d.moment(p, 3)
        with pytest.raises(DomainError):
            d.moment_s(p, -(p.beta + 1.0 / p.alpha) - 0.1)


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


def _hankel_pass(p, z):
    """The Hankel pass alone at z, on a block of one row (0.0 where its
    plan puts lambda below the double range)."""
    plan = d._plan(p, z)
    return d._hankel(p, [plan])[0] if plan else 0.0


def test_lambda_series_vs_contour(p_half, p_three_quarter, p_half_ext,
                                  p_three_quarter_ext):
    # the contour alone against the mpmath residue series; lambda is float64
    # at every precision, so ext128 gives the double values bit for bit
    zs = np.array([0.0, 0.5, 2.5, 4.0, 6.0, 12.0])
    for p, p_ext in ((p_half, p_half_ext), (p_three_quarter, p_three_quarter_ext)):
        for z in (2.5, 4.0, 6.0):
            s = lambda_series_mp(p.alpha, p.beta, z)
            m = _hankel_pass(p, z)
            assert m == pytest.approx(s, rel=2e-9), (p.alpha, z)
        assert d.lambda_values(p_ext, zs).tolist() == d.lambda_values(p, zs).tolist()


def test_lambda_below_double_range_is_zero():
    # at (0.9, 0) the integrand's log at the saddle T = (0.9 z)^10 is T (1 -
    # 1/0.9), -2,288 for z = 3 and -2.3e6 for z = 6: the plan sees it and
    # runs no pass
    p = make_params(0.9, 0.0)
    for z in (3.0, 6.0):
        assert d.lambda_value(p, z) == 0.0
        assert not d._residue_sum(p, z)[1] and d._plan(p, z) is None


SADDLE_PAIRS = [(0.1, 1.0), (0.5, 1.0), (0.5, 40.0), (0.75, -1.0 / 3.0), (0.9, 0.5),
                (0.95, 10.0), (0.99, 0.0), (0.99, 100.0), (0.999, 1.0)]


@pytest.mark.parametrize("alpha, beta", SADDLE_PAIRS)
def test_hankel_plan_places_its_nodes(alpha, beta):
    # sigma lies on or right of the saddle of tau - z tau^alpha - (bb - 1/2)
    # log tau and is at least T and 1; past the plan's n nodes |v(u)| stays
    # below 1e-17 (its bound is checked here, not proved), and the settle
    # test holds at the plan's h
    p = make_params(alpha, beta)
    bb = p.bar_beta_alpha
    for z in np.geomspace(0.05, 40.0, 23).tolist():
        plan = d._plan(p, z)
        if plan is None:
            continue
        sigma, c, h, n, _ = plan
        T = (alpha * z) ** (1.0 / (1.0 - alpha))
        assert sigma >= max(T, 1.0) * (1.0 - 1e-14), z
        assert sigma == 1.0 or sigma - alpha * c - (bb - 0.5) >= -1e-9 * sigma, z
        u = h * np.arange(n - 1.0, 4.0 * n)
        ell = 0.5 * np.log1p(u * u) + 1j * np.arctan(u)
        e = (1.0 - 2.0 * bb) * ell + sigma * (2j * u - u * u) - c * np.expm1(2.0 * alpha * ell)
        assert np.exp(e.real).max() < 1e-17, z
        d._hankel(p, [plan])


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
    # at (0.95, 1) the residue sums stand at these z (the contour takes over
    # past z = 1.1)
    p = make_params(0.95, 1.0)
    zs = np.array([0.05, 0.5, 1.0])
    for z, v in zip(zs.tolist(), d.lambda_values(p, zs).tolist()):
        assert v == pytest.approx(lambda_series_mp(0.95, 1.0, z), rel=1e-12, abs=0.0), z


#: z of the near-one test past z = 1, near the spike at 1/alpha, where the
#: Hankel pass takes over (the oracle's cost grows fast past these)
NEAR_ONE_SPIKE = {0.9: (1.5, 2.0), 0.95: (1.2,), 0.97: (1.1, 1.2), 0.99: (1.05,)}


@pytest.mark.parametrize("alpha", sorted(NEAR_ONE_SPIKE))
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_lambda_near_alpha_one_both_routes_vs_oracle(alpha, beta):
    # residue sums below z = 1 and Hankel passes near the spike, against
    # the mpmath residue series
    p = make_params(alpha, beta)
    zs = np.array([0.05, 0.5, 1.0, *NEAR_ONE_SPIKE[alpha]])
    for z, v in zip(zs.tolist(), d.lambda_values(p, zs).tolist()):
        assert v == pytest.approx(lambda_series_mp(alpha, beta, z), rel=1e-12, abs=0.0), z


def test_lambda_values_equal_scalar_calls(p_half, p_three_quarter):
    # series nodes, contour nodes, z = 0 and values below the double range,
    # in any batch and any shape
    for p in (p_half, p_three_quarter, make_params(0.95, 1.0)):
        zs = np.concatenate([[0.0], np.linspace(0.05, 14.0, 60)])
        got = d.lambda_values(p, zs)
        assert got.tolist() == [d.lambda_value(p, float(z)) for z in zs]
        assert d.lambda_values(p, zs[::-1].reshape(-1, 1)).ravel().tolist() \
            == got[::-1].tolist()
        assert _hankel_pass(p, 9.0) == d.lambda_values(p, [9.0])[0]


def _outcome(f, *args):
    """f(*args) as its float's hex, or the type and message it raised."""
    try:
        return float(f(*args)).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _in_a_block(p, z):
    """The Hankel pass at z as one row of a block whose other rows run
    more and fewer nodes, or the outcome of its plan."""
    plan = d._plan(p, z)
    if plan is None:
        return 0.0
    rows = [d._plan(p, x) for x in (0.5 * z, 2.0 * z, 1.07)]
    return d._hankel(p, [r for r in rows if r is not None] + [plan])[-1]


@st.composite
def _kernel_points(draw):
    alpha = draw(st.one_of(st.sampled_from([0.5, 2.0 / 3.0, 0.75, 1.0 / 3.0]),
                           st.floats(0.3, 0.98)))
    beta = draw(st.floats(1.0 - 1.0 / alpha, 2.5, exclude_min=True))
    z = math.exp(draw(st.floats(math.log(0.05), math.log(40.0))))
    return alpha, beta, z


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_points())
def test_lambda_value_is_the_array_pass_bit_for_bit(point):
    # lambda_value against lambda_values, errors included, and the Hankel
    # pass on one row against the same row in a block of rows that run
    # more and fewer nodes
    alpha, beta, z = point
    p = make_params(alpha, beta)
    assert _outcome(d.lambda_value, p, z) \
        == _outcome(lambda p, z: d.lambda_values(p, np.array([z]))[0], p, z)
    if not d._residue_sum(p, z)[1]:
        assert _outcome(_hankel_pass, p, z) == _outcome(_in_a_block, p, z)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_kernel_points())
def test_cut_residue_sums_are_the_whole_rows(point):
    # every standing sum cut at K(z) has the bits of the whole row's sum,
    # and a z the cut table sends on unsummed fails the whole row's tests
    from glspec.specfun import _horner_float
    alpha, beta, z = point
    p = make_params(alpha, beta)
    c, tail, _ = d._residue_row(p)
    whole, mag = _horner_float(c, z)
    stands = (mag <= d._SERIES_COND * abs(whole) and mag < math.inf and whole != 0.0
              and all(lck + k * math.log(z) <= math.log(abs(whole)) + d._TAIL
                      for k, lck in tail))
    s, ok = d._residue_sum(p, z)
    assert ok == stands and (not ok or s.hex() == whole.hex())
    sa, oka = d._residue_sum(p, np.array([z]))
    assert bool(oka[0]) == ok and (not ok or sa[0].hex() == s.hex())


@pytest.mark.parametrize("alpha, beta, z, event", [
    (0.999, 0.0, 3.0, "below range"), (0.995, 1.0, 40.0, "below range"),
    (0.99, 0.0, 1.0, "past node 128"), (0.98, 0.0, 1.0704, "coarse step"),
    (0.9999, 0.0, 0.9, "budget")])
def test_hankel_pass_at_its_edges(alpha, beta, z, event, monkeypatch):
    # each case reaches its branch of the plan or the pass: no pass below
    # the double range, a long pass near the spike of alpha -> 1 (against
    # the oracle), a step too coarse to settle, and a node count past the
    # budget, whose ContourError comes before any pass; the one-row pass
    # and the block give the same outcome
    p = make_params(alpha, beta)
    if event == "coarse step":
        monkeypatch.setattr(d, "_H0", 1.0)
    got = _outcome(d.lambda_value, p, z)
    assert got == _outcome(_in_a_block, p, z)
    if event == "below range":
        assert d._plan(p, z) is None and got == 0.0.hex()
    elif event == "past node 128":
        assert d._plan(p, z)[3] > 128
        assert d.lambda_value(p, z) == pytest.approx(lambda_series_mp(alpha, beta, z),
                                                     rel=1e-11)
    elif event == "coarse step":
        assert got[0] == "ContourError" and "settle" in got[1]
    else:
        assert got == ("ContourError", "kernel contour failed to decay below tolerance")


@pytest.mark.parametrize("alpha, beta", [(0.4, 1.3), (0.5, 1.0), (0.75, 0.5), (0.9, 0.5)])
def test_lambda_grid_is_lambda_value_bit_for_bit(alpha, beta, monkeypatch):
    # the grid's contour points, taken in parts in 64-point chunks, against
    # the one-point driver's whole passes; the nodes the Chernoff bound
    # skips are 0.0
    p, asked = make_params(alpha, beta), []
    values = d.lambda_values

    def spy_values(params, z):
        asked.extend(z.tolist())
        return values(params, z)

    monkeypatch.setattr(d, "lambda_values", spy_values)
    nodes, _, lam, _ = d._lambda_grid.__wrapped__(p)
    assert not d._residue_sum(p, np.array(asked))[1].all()
    asked = set(asked)
    for z, v in zip(nodes.tolist(), lam.tolist()):
        assert v.hex() == (d.lambda_value(p, z) if z in asked else 0.0).hex(), z


def test_lambda_grid_contour_work(monkeypatch):
    # nodes the Hankel pass evaluates while building the grid at (0.4,
    # 1.3): its 107 contour points in 2 blocks, each as wide as its longest
    # row, 6,612 nodes (the Mellin-Barnes contour took 8,560 in parts)
    work, hankel = [0, 0, 0], d._hankel

    def spy_hankel(params, plans):
        width = max(plan[3] for plan in plans)
        work[0] += len(plans) * width
        work[1] += 1
        work[2] += len(plans)
        return hankel(params, plans)

    monkeypatch.setattr(d, "_hankel", spy_hankel)
    d._lambda_grid.__wrapped__(make_params(0.4, 1.3))
    assert work == [6612, 2, 107]
    assert work[0] < 64 * work[2]


def _lambda_oracle(alpha, beta, z):
    return lambda_series_mp(alpha, beta, z) if z <= 2.0 else lambda_contour_mp(alpha, beta, z)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5)])
def test_lambda_at_the_edge_of_the_residue_row(alpha, beta, monkeypatch):
    # the largest z whose residue sum passes the truncation test within the
    # row's terms, found with the condition test off: values just below and
    # just above it stand against the oracles, whichever route they take
    p = make_params(alpha, beta)
    with monkeypatch.context() as m:
        m.setattr(d, "_SERIES_COND", math.inf)
        lo, hi = 0.05, 50.0
        assert d._residue_sum(p, lo)[1] and not d._residue_sum(p, hi)[1]
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if d._residue_sum(p, mid)[1] else (lo, mid)
    for z in (lo * (1.0 - 1e-3), hi * (1.0 + 1e-3)):
        assert d.lambda_value(p, z) == pytest.approx(_lambda_oracle(alpha, beta, z),
                                                     rel=1e-10, abs=0.0), z


def test_lambda_values_with_a_short_residue_row(monkeypatch):
    # with 64 terms the condition test alone keeps sums the row cannot reach
    # (at z = 12, 1e13 off at (1/2, 1) and 8e38 at (3/4, 1/2)): the
    # truncation test must send them on
    monkeypatch.setattr(d, "_RESIDUE_TERMS", 64)
    d._residue_row.cache_clear()
    try:
        zs = np.geomspace(0.05, 12.0, 25)
        for alpha, beta in ((0.5, 1.0), (0.75, 0.5)):
            got = d.lambda_values(make_params(alpha, beta), zs)
            for z, v in zip(zs.tolist(), got.tolist()):
                ref = _lambda_oracle(alpha, beta, z)
                if abs(ref) > 1e-300:
                    assert v == pytest.approx(ref, rel=1e-10, abs=0.0), (alpha, z)
    finally:
        d._residue_row.cache_clear()


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


def test_markov_multiplier_raises_past_the_double_range(p_half):
    with pytest.raises(DomainError, match="double range"):
        d.markov_lambda_apply(p_half, monomial(2), 1e200)
    with pytest.raises(DomainError, match="double range"):
        d.markov_lambda_apply(p_half, poly_fn([1e300, 0.0, 1e300]), 1e5)


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
    lhs = inner_exact_mp(0.5, 1.0, lam_pw, lam_pw)
    rhs = inner_exact_mp(1.0, 0.0, f.powers, f.powers)
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
    assert d.weight_eval(p, 1e4) == 0.0
    assert d.log_weight_eval(p, 1e4) == -math.inf


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
