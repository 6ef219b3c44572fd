import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec.core import (DomainError, Precision, QuadratureError, make_params,
                         monomial, poly_fn)
from glspec import coeigen, core, eigen
from glspec import density as d
from glspec import quad as q
from glspec import semigroup as sg
from glspec.eigen import p_fn
from glspec.coeigen import r_eval_bell, r_fn

from oracles import (inner_exact_mp, moment_form_mp, r_aux_norm_mp, r_coeffs_bell_mp,
                     w_coeffs_exact)


def rule_for(p, m=120):
    return q.build_rule(p, m)


def test_order_one_classical():
    r = q.build_rule(make_params(1, 0), 1)
    assert r.nodes[0] == pytest.approx(1.0, rel=1e-14)
    assert r.weights[0] == pytest.approx(1.0, rel=1e-14)


def test_mass_normalization(p_half, p_three_quarter, p_classical):
    # m = 500, the top of the documented range, once overflowed the
    # Stieltjes recurrence (rational alpha) and the weight sums (alpha = 1)
    for p in (p_half, p_three_quarter, p_classical,
              make_params(2.0 / 3.0, 1.0), make_params(1.0 / 3.0, 1.0)):
        for m in (80, 500):
            r = rule_for(p, m)
            assert np.all(np.isfinite(r.weights)) and np.all(r.weights >= 0.0)
            assert float(r.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_moment_reproduction_m50(p_half):
    r = rule_for(p_half, 50)
    for k in range(21):
        got = q.integrate(r, lambda x, k=k: x ** k)
        assert got == pytest.approx(d.moment(p_half, k), rel=1e-10), k


def test_moment_reproduction_all_params(p_three_quarter, p_classical):
    for p in (p_three_quarter, p_classical):
        r = rule_for(p, 60)
        for k in range(0, 21, 2):
            got = q.integrate(r, lambda x, k=k: x ** k)
            assert got == pytest.approx(d.moment(p, k), rel=1e-10)


def test_fractional_power_exactness(p_half):
    # co-eigen powers x^(j/alpha) integrate exactly as well
    r = rule_for(p_half, 60)
    a, b = 0.5, 1.0
    for j in range(1, 15):
        got = q.integrate(r, lambda x, j=j: x ** (j / a))
        expect = math.exp(math.lgamma(j + a * b + 1.0) - math.lgamma(a * b + 1.0))
        assert got == pytest.approx(expect, rel=1e-11), j


def test_build_rule_domain(p_half):
    with pytest.raises(DomainError):
        q.build_rule(p_half, 0)
    with pytest.raises(DomainError):
        q.build_rule(p_half, 501)
    # x**149 overflows at the far nodes: at order 200 against a weight that
    # underflowed to 0 (0 * inf = nan), at order 120 against a finite one
    for m in (200, 120):
        with np.errstate(over="ignore"), pytest.raises(QuadratureError):
            q.integrate(rule_for(make_params(1, 0), m), lambda x: x ** 149)


def test_inner_trivial_and_moment(p_half):
    from glspec.core import const_fn
    r = rule_for(p_half)
    assert q.inner(r, const_fn(), const_fn()) == pytest.approx(1.0, rel=1e-12)
    assert q.inner(r, monomial(1), monomial(1)) == pytest.approx(
        d.moment(p_half, 2), rel=1e-12)


def test_inner_biorthogonal_pair(p_half):
    r = rule_for(p_half)
    assert q.inner(r, p_fn(p_half, 1), r_fn(p_half, 1)) == pytest.approx(
        1.0, rel=1e-10)


def test_inner_error_estimate(p_half):
    r = rule_for(p_half)
    val, err = q.inner_with_error(r, monomial(2), monomial(3))
    assert val == pytest.approx(d.moment(p_half, 5), rel=1e-11)
    assert err < 1e-9
    # a wild integrand trips the two-order check
    with pytest.raises(QuadratureError):
        q.inner(r, lambda x: math.sin(40.0 * x * x), lambda x: 1.0, rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 7, 120])
def test_inner_error_is_the_half_order_difference(p_half, m):
    # the estimate is |full - coarse|, coarse by build_rule's order-m//2 rule,
    # and inf at m = 1; without rtol, inner is the full value alone
    f, g = monomial(2), lambda x: np.exp(-x)
    fg = lambda x: np.asarray(f(x)) * np.asarray(g(x))
    r = q.build_rule(p_half, m)
    val, err = q.inner_with_error(r, f, g)
    assert val == q.integrate(r, fg) == q.inner(r, f, g)
    if m == 1:
        assert err == math.inf
    else:
        assert err == abs(val - q.integrate(q.build_rule(p_half, m // 2), fg))


def test_build_rule_builds_only_the_order_asked_for():
    # one cold call is one cache miss, with no rules of order m/2, m/4, ...
    q.build_rule.cache_clear()
    q.build_rule(make_params(0.5, 1.0), 160)
    assert q.build_rule.cache_info().misses == 1


def test_gram_identity_double(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        G = q.gram_biorth(p, 8)
        assert np.abs(G - np.eye(9)).max() <= 1e-6


def test_gram_identity_extended(p_half_ext, p_three_quarter_ext):
    for p in (p_half_ext, p_three_quarter_ext):
        G = q.gram_biorth(p, 12)
        assert np.abs(G - np.eye(13)).max() <= 1e-8


def test_gram_trivial_and_classical(p_half, p_classical):
    G0 = q.gram_biorth(p_half, 0)
    assert G0.shape == (1, 1) and G0[0, 0] == pytest.approx(1.0, rel=1e-12)
    G = q.gram_biorth(p_classical, 12)
    assert np.abs(G - np.eye(13)).max() <= 1e-8


#: (alpha, beta, N) where the former quadrature or fixed-digit routes missed
#: the identity: five irrational-alpha verify ops, alpha = 1/sqrt 2, and
#: orders where the coefficients cancel over many digits
HARD_GRAM_CASES = [
    (0.4569958847736624, -0.43966843764070296, 5),
    (0.8314814814814815, 0.27175501113585754, 10),
    (0.9117283950617283, -0.006068788083954113, 5),
    (0.8100823045267491, 1.2758942341884687, 5),
    (0.8956790123456788, 1.822451550654721, 9),
    (1.0 / math.sqrt(2.0), 1.0, 8),
    (0.5, 1.0, 40),
    (0.35, 0.0, 30),
    (0.1, 0.0, 20),
]


@pytest.mark.parametrize("alpha, beta, N", HARD_GRAM_CASES)
def test_gram_identity_hard_cases(alpha, beta, N):
    G = q.gram_biorth(make_params(alpha, beta), N)
    assert np.abs(G - np.eye(N + 1)).max() <= 1e-20


def test_gram_identity_high_order_extended():
    p = make_params(0.5, 1.0, precision=Precision("extended", 128))
    G = q.gram_biorth(p, 40)
    assert np.abs(G - np.eye(41)).max() <= 1e-20


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.35, 0.0), (0.4, 0.73)])
def test_r_norm_matches_pairwise_oracle(alpha, beta):
    p = make_params(alpha, beta)
    for n in (5, 8):
        with mp.workdps(60):
            pw = [(c, j / mp.mpf(alpha))
                  for j, c in enumerate(r_coeffs_bell_mp(p, n, dps=60))]
            ref = float(inner_exact_mp(alpha, beta, pw, pw, dps=60))
        got = q.r_norm(p, n)[0] ** 2
        assert got == pytest.approx(ref, rel=1e-14), n


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
def test_inner_symmetric_bilinear(cf, cg):
    p = make_params(0.5, 1.0)
    r = rule_for(p)
    f, g = poly_fn(cf), poly_fn(cg)
    a = q.inner(r, f, g)
    b = q.inner(r, g, f)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    two_f = poly_fn([2.0 * c for c in cf])
    assert q.inner(r, two_f, g) == pytest.approx(2.0 * a, rel=1e-12, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
       st.integers(0, 6))
def test_cauchy_schwarz(coeffs, n):
    # the Rodrigues identity's <f, R_n> within ||f|| ||R_n||, ||f|| by the
    # oracle's pairwise moment sum and ||R_n|| by r_norm's integer sum
    p = make_params(0.5, 1.0)
    f = poly_fn(coeffs)
    lhs = abs(next(itertools.islice(sg._against_r(p, f.powers), n, None)))
    nf = math.sqrt(max(float(inner_exact_mp(0.5, 1.0, f.powers, f.powers)), 0.0))
    assert lhs <= nf * q.r_norm(p, n)[0] * (1.0 + 1e-9) + 1e-12


def test_bessel_inequality(p_half):
    r = rule_for(p_half)
    rep = q.bessel_check(p_half, lambda x: np.exp(-x), 15, r)
    assert rep.ok
    diffs = np.diff(rep.partial_sums)
    assert np.all(diffs >= -1e-15)  # monotone partial sums
    rep2 = q.bessel_check(p_half, monomial(2), 15, r)
    assert rep2.ok
    # f = P_0 case: first coefficient exhausts the norm
    from glspec.core import const_fn
    rep3 = q.bessel_check(p_half, const_fn(), 3, r)
    assert rep3.partial_sums[0] == pytest.approx(rep3.norm2, rel=1e-10)


def test_r_norm_trivial_and_envelope(p_half):
    n0, aux0 = q.r_norm(p_half, 0)
    assert n0 == pytest.approx(1.0, rel=1e-12)
    assert math.isfinite(aux0) and aux0 > 0.0
    n10, _ = q.r_norm(p_half, 10)
    assert 0.0 < math.log(n10) / 10.0 < p_half.t_alpha + 0.1


def test_r_norm_classical_formula():
    p = make_params(1, 0.7)
    for n in (3, 9, 17):
        got, _ = q.r_norm(p, n)
        expect = math.sqrt(math.exp(math.lgamma(n + 1.7) - math.lgamma(n + 1.0)
                                    - math.lgamma(1.7)))
        assert got == pytest.approx(expect, rel=1e-10), n


# (alpha, beta, n, ||R_n e/ebar||) at gamma = alpha/2, eta_bar = 1
_AUX_ROWS = [(0.5, 1.0, 3, 3.1759), (0.75, 0.5, 5, 1.1481), (0.4, 0.73, 8, 32.453)]


@pytest.mark.parametrize("alpha, beta, n, value", _AUX_ROWS)
def test_r_aux_norm_oracle_matches_x_space_integral(alpha, beta, n, value):
    # Int R_n(x)^2 e(x)^2 / ebar(x) dx in x itself, R_n by the table route
    p = make_params(alpha, beta)
    ex = beta + 1.0 / alpha - 1.0
    with mp.workdps(20):
        f = lambda x: (mp.mpf(r_eval_bell(p, n, float(x))) ** 2 * x ** ex
                       * mp.exp(-2 * x ** (1 / alpha) - x ** (2 / alpha)))
        direct = math.sqrt(float(mp.quad(f, [0, 1, 2, 200 ** alpha]))) \
            / (alpha * math.gamma(alpha * beta + 1.0))
    oracle = r_aux_norm_mp(p, n, 0.5 * alpha)
    assert oracle == pytest.approx(direct, rel=1e-12)
    assert oracle == pytest.approx(value, rel=2e-5)


def _aux_cases():
    """Every alpha at beta = 1 and at its boundary 1 - 1/alpha + 1e-9, each
    pair with three (n, gamma/alpha): over a beta pair's two halves each
    alpha meets all six n, and each pair all three gamma/alpha."""
    ns, gs = (0, 3, 8, 12, 20, 25), (0.2, 0.5, 0.9)
    for i, a in enumerate((1.0 / 3.0, 0.35, 0.4, 0.5, 0.6, 0.75, 0.9)):
        for j, b in enumerate((1.0 - 1.0 / a + 1e-9, 1.0)):
            for k in range(3):
                yield a, b, ns[(i + 3 * j + k) % 6], gs[(i + j + k) % 3]


@pytest.mark.parametrize("alpha, beta, n, g", list(_aux_cases()))
def test_r_aux_norm_matches_oracle(alpha, beta, n, g):
    p = make_params(alpha, beta)
    got = q.r_norm(p, n, gamma_=g * alpha)[1]
    assert got == pytest.approx(r_aux_norm_mp(p, n, g * alpha), rel=1e-9)


def test_r_norm_calls_no_mp_quad(p_half, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.quad called")
    monkeypatch.setattr(mp, "quad", refuse)
    for n in (0, 8, 25):
        nrm, aux = q.r_norm(p_half, n)
        assert math.isfinite(nrm) and math.isfinite(aux) and aux > 0.0


def test_r_aux_norm_takes_the_double_tiers_at_extended_precision(monkeypatch):
    # a float64 rule held to 1e-10: at ext128 its nodes take the float64 and
    # double-double tiers as at double, not the exact tier one by one
    from glspec import specfun as sf
    exact = sf._horner_exact
    calls = {}

    def counted(*args):
        calls[prec] = calls.get(prec, 0) + 1
        return exact(*args)
    monkeypatch.setattr(sf, "_horner_exact", counted)
    for n in (3, 12, 25):
        got = {}
        for prec in ("double", "ext128"):
            got[prec] = q._log_aux_norm2(make_params(0.5, 1.0, prec), n, 0.25, 1.0)
        assert math.exp(got["ext128"] - got["double"]) == pytest.approx(1.0, abs=1e-10)
    assert calls.get("ext128", 0) == calls.get("double", 0)


def test_r_aux_norm_error_test_raises_on_a_coarse_step(p_half, monkeypatch):
    monkeypatch.setattr(q, "_AUX_STEP", 0.25)
    with pytest.raises(QuadratureError, match="step-h and step-2h"):
        q.r_norm(p_half, 12)


def test_u_rule_fallback_irrational_alpha():
    # non-rational alpha: u-substitution rule; accuracy degrades gracefully
    p = make_params(1.0 / math.pi, 2.0)
    r = q.build_rule(p, 160)
    assert float(r.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    got = q.integrate(r, lambda x: x)
    assert got == pytest.approx(d.moment(p, 1), rel=1e-5)


def test_gram_biorth_builds_the_p_rows_in_one_pass(monkeypatch):
    # fresh params: N + 1 gammas for the "P" table (Gamma(ab+1) once, then
    # one per order 1..N), because it is extended to row N in one call, and
    # N + 1 fresh ones for the moments (Gamma(alpha k + ab + 1), k = 0..N);
    # at most 2N + 3.  Neither form makes an mp.fdot call.
    from glspec import core
    p, N = make_params(0.5377, 0.713), 40
    core._tables.pop(("P", p), None)
    count = [0]
    gamma = mp.gamma
    monkeypatch.setattr(mp, "gamma", lambda *a: count.__setitem__(0, count[0] + 1) or gamma(*a))
    monkeypatch.setattr(mp, "fdot", lambda *a: pytest.fail("mp.fdot called"))
    G = q.gram_biorth(p, N)
    assert count[0] == 2 * (N + 1) <= 2 * N + 3
    assert np.abs(G - np.eye(N + 1)).max() < 1e-20
    count[0] = 0
    assert math.isfinite(q.r_norm(p, 25)[0]) and count[0] == 0


def _drop_tables(p):
    for family in ("P", "R"):
        core._tables.pop((family, p), None)


@pytest.mark.parametrize("m, j", [(8, 4), (3, 1)])
def test_gram_biorth_sees_a_corrupted_r_row(m, j):
    # one entry of the held exact row of R_m off by 2^-40 relative
    p, N = make_params(0.6180339887, 0.8), 8
    _drop_tables(p)
    try:
        row = core.coeff_table("R", coeigen._extend, p, N).rows[m]
        row[j] += row[j] >> 40
        assert np.abs(q.gram_biorth(p, N) - np.eye(N + 1)).max() > 1e-12
    finally:
        _drop_tables(p)


def test_gram_biorth_checks_the_held_g_row():
    # g_3 of the 48-digit row the evaluators hold off by 2^-40 relative: G
    # is taken against that row, not against one formed again at more digits
    p, N = make_params(0.6180339887, 0.8), 8
    _drop_tables(p)
    try:
        mants = eigen._row(p, N)[0]
        mants[3] += mants[3] >> 40
        assert np.abs(q.gram_biorth(p, N) - np.eye(N + 1)).max() > 1e-12
    finally:
        _drop_tables(p)


@pytest.mark.parametrize("N", [4, 8, 20, 40])
def test_cold_gram_biorth_reads_no_float_tables(N):
    # no float64 "coeff" face of P, no double-double R rows, and the "P"
    # table's g_k row stays at its first 48 digits
    p = make_params(0.5377, 0.713)
    _drop_tables(p)
    for cached in (eigen.p_coeffs, coeigen.r_coeffs, coeigen._w_coeffs):
        cached.cache_clear()
    G = q.gram_biorth(p, N)
    faces = core.coeff_faces("P", p)
    assert "coeff" not in faces and faces["G"][2] == 48
    for cached in (eigen.p_coeffs, coeigen.r_coeffs, coeigen._w_coeffs):
        assert cached.cache_info().misses == 0
    assert np.abs(G - np.eye(N + 1)).max() <= 1e-20


def _p_rows_mp(p, N, dps):
    """P_0..P_N: (-1)^k C(n, k) Gamma(ab + 1) / Gamma(alpha k + ab + 1), by
    mp.gamma at dps digits."""
    with mp.workdps(dps):
        a, ab1 = mp.mpf(p.alpha), mp.mpf(p.alpha) * p.beta + 1
        g = [mp.gamma(ab1) / mp.gamma(a * k + ab1) for k in range(N + 1)]
        return [[(-1) ** k * math.comb(n, k) * g[k] for k in range(n + 1)] for n in range(N + 1)]


def _r_rows_mp(p, ns, dps):
    """R_n for n in ns from the exact Fractions of ``w_coeffs_exact``."""
    with mp.workdps(dps):
        return [[mp.mpf(c.numerator) / c.denominator for c in w_coeffs_exact(p, n)] for n in ns]


#: (alpha, beta, N, precision) of the moment forms against the mpmath oracle:
#: long binary denominators of alpha and beta, extended precision, alpha = 1,
#: beta at its boundary, beta = 1e-300, and strong cancellation
MOMENT_FORM_CASES = [
    (0.5377, 0.713, 40, "double"),
    (0.5, 1.0, 40, "ext128"),
    (1.0, 0.5, 20, "double"),
    (0.6, 1.0 - 1.0 / 0.6 + 1e-9, 15, "double"),
    (0.5, 1e-300, 10, "double"),
    (0.1, 0.0, 20, "double"),
]


@pytest.mark.parametrize("alpha, beta, N, prec", MOMENT_FORM_CASES)
def test_moment_forms_match_the_mpmath_form(alpha, beta, N, prec):
    p = make_params(alpha, beta, prec)
    ns = range(N + 1)
    rows = lambda dps: (_p_rows_mp(p, N, dps), [mp.mpf(alpha) * k for k in ns],
                        _r_rows_mp(p, ns, dps), list(ns))
    ref = np.array(moment_form_mp(alpha, beta, rows), dtype=float)
    G = q.gram_biorth(p, N)
    assert np.abs(G - np.eye(N + 1)).max() <= 1e-20
    assert np.abs(G - ref).max() <= 1e-20
    for n in sorted({1, N // 2, min(N, 25)}):
        r = lambda dps, n=n: (_r_rows_mp(p, [n], dps), list(range(n + 1))) * 2
        ref = math.sqrt(float(moment_form_mp(alpha, beta, r)[0][0]))
        assert q.r_norm(p, n)[0] == pytest.approx(ref, rel=1e-15), n
