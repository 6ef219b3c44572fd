import dataclasses
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest

from glspec.core import (COND_THRESHOLD, EXT128, DomainError, RealFn, TruncationError,
                         const_fn, make_params, monomial, phi, poly_fn)
from glspec import semigroup as sg
from glspec import density as d
from glspec import quad as q
from glspec.coeigen import r_eval_bell
from glspec.eigen import laguerre_eval, p_coeffs, p_eval, p_fn, p_sup

from oracles import (inner_exact_mp, kernel_sum_per_term, moment_ode_evolution,
                     r_coeffs_bell_mp, richardson_derivative)


def test_generator_node_route_calls_a_constants_d2_once():
    # extended precision takes the node route: one d2 call on the node array
    base, calls = const_fn(2.0), []
    f = RealFn(base.f, d1=base.d1, d2=lambda x: calls.append(x) or base.d2(x),
               powers=base.powers)
    assert sg.generator_apply(make_params(0.5, 1, EXT128), f, 1.0) == 0.0
    assert len(calls) == 1


def test_generator_on_p1(p_half):
    assert sg.generator_apply(p_half, monomial(1), 1.7) == pytest.approx(
        p_half.d_ab - 1.7, rel=1e-13)


def test_generator_monomial_action(p_half, p_three_quarter):
    # L x^k = k phi(k) x^(k-1) - k x^k
    for p in (p_half, p_three_quarter):
        for k, x in ((3, 1.2), (5, 0.4)):
            expect = k * phi(p, k).real * x ** (k - 1) - k * x ** k
            assert sg.generator_apply(p, monomial(k), x) == pytest.approx(
                expect, rel=1e-11)


def test_generator_classical():
    p = make_params(1, 2)
    f = monomial(2)
    x = 1.3
    # x f'' + (beta + 1 - x) f'
    assert sg.generator_apply(p, f, x) == pytest.approx(
        x * 2.0 + (3.0 - x) * 2.0 * x, rel=1e-13)


def test_generator_eigen_relation(p_half):
    for n in (2, 5):
        f = p_fn(p_half, n)
        sup = p_sup(p_half, n)
        for x in np.linspace(0.02, 10.0, 21):
            res = abs(sg.generator_apply(p_half, f, float(x)) + n * f(float(x)))
            assert res <= 1e-9 * sup


def test_generator_finite_difference_fallback(p_half):
    # no supplied derivatives: central differences take over
    f = RealFn(lambda x: x ** 3)
    got = sg.generator_apply(p_half, f, 1.1)
    expect = 3.0 * phi(p_half, 3).real * 1.1 ** 2 - 3.0 * 1.1 ** 3
    assert got == pytest.approx(expect, rel=1e-5)


def _without_powers(f):
    """f without its ``powers``: the generator takes f'' on the node array."""
    return dataclasses.replace(f, powers=None)


def _generator_point_by_point(p, f, x):
    """L f(x) with f'' taken one node at a time, as a scalar-only f needs."""
    y, gw = sg._generator_grid(p)
    vals = np.array([f.deriv2(float(x * yy)) for yy in y])
    return (p.d_ab - x) * f.deriv1(x) + x * float(gw @ vals)


def test_generator_array_second_derivative_matches_point_by_point(p_half, p_three_quarter):
    fns = [monomial(3), monomial(2.5), poly_fn([1.0, -2.0, 0.5, 3.0], 0.5), const_fn(2.0),
           RealFn(lambda x: x ** 3)]               # the last has no d2: finite differences
    for p in (p_half, p_three_quarter):
        p6 = _without_powers(p_fn(p, 6))           # P_6 on the node route
        for x in (0.3, 1.7, 6.0):
            got = sg.generator_apply(p, p6, x)
            assert got == _generator_point_by_point(p, p6, x)
            for f in fns:
                assert sg.generator_apply(p, f, x) == pytest.approx(
                    _generator_point_by_point(p, f, x), rel=1e-14, abs=1e-14)


def test_generator_takes_f2_once_per_call(p_half):
    # one array evaluation of P_6'' for the whole singular integral on the node route
    f = _without_powers(p_fn(p_half, 6))
    seen = []
    counted = RealFn(f.f, d1=f.d1, d2=lambda x: seen.append(np.shape(x)) or f.d2(x))
    got = sg.generator_apply(p_half, counted, 1.3)
    assert len(seen) == 1 and seen[0] == sg._generator_grid(p_half)[0].shape
    assert got == sg.generator_apply(p_half, f, 1.3)


#: pairs of the moment-route tests: half, three quarters, a third, an
#: irrational-looking pair and beta just above its lower bound
_MOMENT_PAIRS = ((0.5, 1.0), (0.75, 0.5), (1.0 / 3.0, 2.0), (0.5377, 0.713),
                 (0.6, 1.0 - 1.0 / 0.6 + 1e-9))
_MOMENT_XS = (0.05, 0.7, 2.3, 6.0, 10.0)


def _moment_terms(p, f, x):
    """The terms c p (p-1) x^(p-1) m(p-2) of the moment route, with m over the
    generator grid."""
    y, gw = sg._generator_grid(p)
    return [c * e * (e - 1.0) * x ** (e - 1.0) * float(gw @ y ** (e - 2.0))
            for c, e in f.powers]


def _d2_counted(f, seen):
    return dataclasses.replace(f, d2=lambda x: seen.append(x) or f.d2(x))


def test_generator_on_powers_by_the_moments(p_half):
    # a generalized polynomial takes the singular integral from the grid's
    # moments, without f'', and agrees with the node route on a copy of f
    # without powers within 1e-12 of the moment sum's sum |t_i|
    for ab in _MOMENT_PAIRS:
        p = make_params(*ab)
        fns = [p_fn(p, n) for n in range(9)] + [
            monomial(2.5), poly_fn([1.0, -2.0, 0.5, 3.0], 0.5), const_fn(2.0)]
        for f in fns:
            for x in _MOMENT_XS:
                seen = []
                got = sg.generator_apply(p, _d2_counted(f, seen), x)
                assert seen == []
                node = sg.generator_apply(p, _without_powers(f), x)
                mag = math.fsum(map(abs, _moment_terms(p, f, x)))
                assert abs(got - node) <= 1e-12 * mag, (ab, f.description, x)


def test_generator_moment_guard_keeps_the_node_route():
    # P_20 cancels: where the moment sum's condition passes COND_THRESHOLD the
    # value is bitwise the node route's (at (1/2, 1), x = 5 the condition is
    # about 1e14 and the float64 moment sum is off by about 1e-2 relative)
    sent = 0
    for ab in _MOMENT_PAIRS:
        p = make_params(*ab)
        f = p_fn(p, 20)
        for x in _MOMENT_XS + (5.0,):
            ts = _moment_terms(p, f, x)
            mag = math.fsum(map(abs, ts))
            got, node = sg.generator_apply(p, f, x), sg.generator_apply(p, _without_powers(f), x)
            if mag > COND_THRESHOLD * abs(math.fsum(ts)):
                assert got == node, (ab, x)
                sent += 1
            else:
                assert abs(got - node) <= 1e-12 * mag, (ab, x)
    assert sent >= 1
    p = make_params(0.5, 1.0)
    ts = _moment_terms(p, p_fn(p, 20), 5.0)
    assert math.fsum(map(abs, ts)) > 1e13 * abs(math.fsum(ts))


def test_generator_at_extended_precision_takes_the_node_route(p_half_ext, p_three_quarter_ext):
    for p in (p_half_ext, p_three_quarter_ext):
        for f in [p_fn(p, n) for n in (2, 6, 8)] + [monomial(2.5), const_fn(2.0)]:
            for x in (0.3, 2.3, 10.0):
                seen = []
                got = sg.generator_apply(p, _d2_counted(f, seen), x)
                assert seen != []
                assert got == sg.generator_apply(p, _without_powers(f), x)


def test_generator_moment_overflow_falls_back(p_half):
    # a term past the double range, a partial sum past it and inf - inf go to
    # the node route: its value, whatever it is, and no bare exception
    m0 = sg._grid_moments(p_half, (0.0,))[0]
    c = 0.6e308 / (2.0 * m0)                     # c p (p-1) x^(p-1) m(0) = 0.6e308 at x = 1

    def gen(powers):
        def fn(k):
            return lambda x: sum(cc * np.prod([e - j for j in range(k)]) * np.power(x, e - k)
                                 for cc, e in powers)
        return RealFn(fn(0), d1=fn(1), d2=fn(2), powers=powers)

    with np.errstate(all="ignore"):
        for f in (gen(((1.0, -300.0),)),                 # m(-302) is inf
                  gen(((c, 2.0), (c, 2.0))),             # fsum overflows
                  gen(((1.0, -300.0), (-1.0, -300.0)))):  # inf - inf
            got = sg.generator_apply(p_half, f, 1.0)
            node = sg.generator_apply(p_half, _without_powers(f), 1.0)
            assert got == node or (math.isnan(got) and math.isnan(node))


def test_moment_identity(p_half, p_three_quarter):
    assert sg.generator_moment_identity_check(p_half, 1) <= 1e-14
    assert sg.generator_moment_identity_check(p_half, 2) <= 1e-9
    assert sg.generator_moment_identity_check(p_three_quarter, 5) <= 1e-8


def test_expand_eigenfunction_is_delta(p_half):
    t = 0.7
    e = sg.expand(p_half, p_fn(p_half, 3), t)
    expect = np.zeros(4)
    expect[3] = math.exp(-3.0 * t)
    assert np.allclose(e.coeffs, expect, atol=1e-8)
    assert e.regime == "small_space"


@pytest.mark.parametrize("alpha, beta, k", [(0.5, 1.0, 10), (0.35, 0.0, 12),
                                            (1.0 / math.sqrt(2.0), 1.0, 8)])
def test_expand_of_p_k_is_delta(alpha, beta, k):
    # exact inner products of P_k against every R_n; what error is left comes
    # from the float64 coefficients that p_fn carries
    p = make_params(alpha, beta)
    c = sg.expand(p, p_fn(p, k), 0.0).coeffs
    assert np.abs(c - np.eye(len(c))[k]).max() <= 1e-9


def _r_row_mp(params, n):
    """R_n as (coefficient, exponent) pairs at the working precision: the
    partial-Bell row of ``r_coeffs_bell_mp``, at alpha = 1 the classical
    Laguerre row (-1)^j C(n + beta, n - j) / j!."""
    a = mp.mpf(params.alpha)
    if params.is_classical:
        cs = [(-1) ** j * mp.binomial(n + mp.mpf(params.beta), n - j) / mp.factorial(j)
              for j in range(n + 1)]
    else:
        cs = r_coeffs_bell_mp(params, n, dps=mp.mp.dps)
    return [(c, j / a) for j, c in enumerate(cs)]


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5), (0.3, 2.0), (0.999, 0.0),
                                         (1.0, 0.5), (0.6, 1.0 - 1.0 / 0.6)])
def test_inner_products_against_r_n_by_the_rodrigues_identity(alpha, beta):
    # <x^p, R_n> = (-1)^n C(p, n) M_e(p) against the oracle's pairwise sum of
    # exact moments over 60-digit rows of R_n
    par = make_params(alpha, beta)
    with mp.workdps(60):
        rows = [_r_row_mp(par, n) for n in range(9)]
    for p in (-0.5, 0.0, 0.7, 2.0, 3.5, 5.0):
        got = list(itertools.islice(sg._against_r(par, ((1.0, p),)), 9))
        for n, row in enumerate(rows):
            ref = float(inner_exact_mp(alpha, beta, [(1, mp.mpf(p))], row, dps=60))
            assert abs(got[n] - ref) <= 1e-14 * d.moment_s(par, p), (p, n)


def test_identity_takes_logs_past_the_double_range(p_half):
    # c M_e(400) with M_e(400) = Gamma(201.5) / Gamma(1.5) above the double range
    got = list(itertools.islice(sg._against_r(p_half, ((1e-300, 400.0),)), 4))
    with mp.workdps(30):
        m = mp.mpf(1e-300) * mp.gamma(mp.mpf(201.5)) / mp.gamma(mp.mpf(1.5))
        ref = [float((-1) ** n * math.comb(400, n) * m) for n in range(4)]
    assert got == pytest.approx(ref, rel=1e-12)
    # 400! - 401! overflows, and so does each term: a named error, not inf - inf
    f = ((1.0, 400.0), (-1.0, 401.0))
    with pytest.raises(DomainError):
        next(sg._against_r(make_params(1.0, 0.0), f))


def test_expand_stops_exactly_only_at_nonnegative_integer_powers(p_half):
    # C(p, n) vanishes past n = p only for integer p >= 0: <x^-1, R_n> = M_e(-1)
    # = 2 / sqrt(pi) at every n
    e = sg.expand(p_half, monomial(-1), 1.0)
    assert e.N > 1 and e.tail_estimate > 0.0
    expect = 2.0 / math.sqrt(math.pi) * np.exp(-np.arange(e.N + 1.0))
    assert np.allclose(e.coeffs, expect, rtol=1e-14, atol=0.0)
    f = RealFn(lambda x: x ** 2 + 1.0 / x, powers=((1.0, 2.0), (1.0, -1.0)))
    assert sg.expand(p_half, f, 1.0).N > 2
    with pytest.raises(DomainError):            # alpha p + alpha beta + 1 = -1/2
        sg.expand(p_half, monomial(-4), 1.0)


def test_expand_constant(p_half):
    e = sg.expand(p_half, const_fn(), 1.0)
    assert e.coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert all(abs(c) < 1e-10 for c in e.coeffs[1:])


def test_expand_p1_closed_form(p_half):
    t = 1.0
    e = sg.expand(p_half, monomial(1), t)
    for x in (0.5, 2.0, 4.0):
        expect = p_half.d_ab + (x - p_half.d_ab) * math.exp(-t)
        assert sg.evaluate_expansion(e, x) == pytest.approx(expect, rel=1e-7)


def test_expand_regime_warning(p_half):
    f = RealFn(lambda x: math.exp(-x))  # no power expansion: full space
    e = sg.expand(p_half, f, 0.3, tol=1e-8)
    assert e.regime == "full_space"
    assert e.warnings  # t below the threshold time


def test_expand_moment_ode_oracle(p_half):
    for k in (2, 4):
        for t in (1.0, 3.0):
            u = moment_ode_evolution(0.5, 1.0, k, t)
            e = sg.expand(p_half, monomial(k), t)
            for x in (0.4, 1.0, 2.5):
                expect = sum(u[j] * x ** j for j in range(k + 1))
                assert sg.evaluate_expansion(e, x) == pytest.approx(
                    expect, rel=1e-7), (k, t, x)


def test_expansion_derivatives_match_finite_differences(p_half):
    f = monomial(2)
    t = 1.0
    e = sg.expand(p_half, f, t)
    x = 1.1
    # time derivative: k = 1
    h = 1e-5
    ep = sg.expand(p_half, f, t + h)
    em = sg.expand(p_half, f, t - h)
    fd_t = (sg.evaluate_expansion(ep, x) - sg.evaluate_expansion(em, x)) / (2 * h)
    assert sg.evaluate_expansion(e, x, k=1) == pytest.approx(fd_t, rel=1e-6)
    # space derivative: p = 1
    fd_x = (sg.evaluate_expansion(e, x + h) - sg.evaluate_expansion(e, x - h)) / (2 * h)
    assert sg.evaluate_expansion(e, x, p=1) == pytest.approx(fd_x, rel=1e-6)


def test_semigroup_law(p_half):
    f = monomial(2)
    t, s = 0.6, 0.9
    e_ts = sg.expand(p_half, f, t + s)
    e_t = sg.expand(p_half, f, t)
    ft = sg.expansion_fn(e_t)
    # P_s applied to P_t f: quadrature route (no power shortcut)
    rule = q.build_rule(p_half, 160)
    e_s = sg.expand(p_half, ft, s, rule, tol=1e-9)
    for x in (0.5, 1.5, 3.0):
        assert sg.evaluate_expansion(e_s, x) == pytest.approx(
            sg.evaluate_expansion(e_ts, x), rel=1e-6, abs=1e-6)


def test_invariance_and_contraction(p_half):
    rng = np.random.default_rng(3)
    rule = q.build_rule(p_half, 160)
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, size=5)
        from glspec.core import poly_fn
        f = poly_fn(list(coeffs))
        t = 0.8
        e = sg.expand(p_half, f, t)
        ptf = sg.expansion_fn(e)
        # invariance of the mean
        mean_f = float(inner_exact_mp(0.5, 1.0, f.powers, ((1.0, 0.0),)))
        mean_ptf = q.integrate(rule, ptf)
        assert mean_ptf == pytest.approx(mean_f, rel=1e-8, abs=1e-8)
        # contraction of the norm
        nf = float(inner_exact_mp(0.5, 1.0, f.powers, f.powers))
        nptf = q.inner(rule, ptf, ptf)
        assert nptf <= nf * (1.0 + 1e-9)


def test_generator_consistency_small_time(p_half):
    # (P_h f - f)/h -> L f with Richardson in h
    for f in (p_fn(p_half, 2), monomial(2)):
        x = 1.3
        lf = sg.generator_apply(p_half, f, x)
        vals = []
        for h in (0.02, 0.01, 0.005):
            e = sg.expand(p_half, f, h)
            vals.append((sg.evaluate_expansion(e, x) - f(x)) / h)
        rich = (4.0 * vals[2] - ... ) if False else None
        # first-order Richardson on the h-expansion
        r1 = 2.0 * vals[1] - vals[0]
        r2 = 2.0 * vals[2] - vals[1]
        rich = 2.0 * r2 - r1
        assert rich == pytest.approx(lf, rel=1e-4, abs=1e-4)


def test_heat_kernel_mass_and_positivity(p_half):
    t = p_half.t_alpha + 0.5
    masses, kmin = sg.heat_kernel_mass(p_half, t, [0.5, 1.0, 3.0])
    assert np.allclose(masses, 1.0, atol=1e-6)
    assert kmin >= -1e-8


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0 / 3.0, 2.0), (1.0, 0.0)])
def test_heat_kernel_mass_matches_scalar_loop(alpha, beta):
    # the same sums with R_n and P_n taken one point at a time
    p = make_params(alpha, beta)
    t, xs = p.t_alpha + 0.5, np.array([0.5, 1.0, 3.0])
    masses, kmin = sg.heat_kernel_mass(p, t, xs)
    rule = q.build_rule(p, 120)
    keep = rule.weights >= 1e-20 * rule.weights.max()
    nodes, wts = rule.nodes[keep], rule.weights[keep]
    seq = p_coeffs(p, 200)
    acc = np.zeros((xs.size, nodes.size))
    small = 0
    for n in range(201):
        rn = np.array([r_eval_bell(p, n, float(yy)) for yy in nodes])
        pn = np.array([p_eval(seq, n, float(xx)) for xx in xs])
        term = math.exp(-n * t) * np.outer(pn, rn)
        acc += term
        small = small + 1 if np.max(np.abs(term) * wts) <= 1e-10 else 0
        if small >= 3:
            break
    dens = np.array([d.weight_eval(p, float(yy)) for yy in nodes])
    np.testing.assert_allclose(masses, acc @ wts, rtol=1e-14)
    assert kmin == pytest.approx(float((acc * dens).min()), rel=1e-14)


def test_heat_kernel_symmetry_breaking(p_half):
    # e(x) P_t(x,y) != e(y) P_t(y,x) for alpha < 1
    t = p_half.t_alpha + 0.5
    x, y = 0.7, 2.0
    lhs = d.weight_eval(p_half, x) * sg.heat_kernel(p_half, t, x, y)
    rhs = d.weight_eval(p_half, y) * sg.heat_kernel(p_half, t, y, x)
    assert abs(lhs - rhs) / abs(lhs) > 1e-4


def test_heat_kernel_classical_assembly():
    p = make_params(1, 0)
    t, x, y = 1.0, 1.0, 2.0
    got = sg.heat_kernel(p, t, x, y)
    # classical route: sum e^{-nt} L_n(x) L_n(y) e_beta(y) / ||L_n||^2
    acc = 0.0
    for n in range(80):
        acc += (math.exp(-n * t) * laguerre_eval(n, 0.0, x)
                * laguerre_eval(n, 0.0, y) * math.exp(-y))
    assert got == pytest.approx(acc, rel=1e-8)


def test_heat_kernel_truncation_error(p_half):
    with pytest.raises(TruncationError):
        sg.heat_kernel(p_half, 1e-4, 1.0, 1.0, nmax=40)


def test_kernel_sums_past_n_200(p_half):
    # at t = 0.06 the heat sum runs past n = 200, the default cap, with nmax
    # raised: it sums, and P_s(x, z) = e^s K_{e^s - 1}(x, e^s z) holds
    s = 0.06
    hk = sg.heat_kernel(p_half, s, 1.0, 1.0, nmax=500)
    K = math.exp(s) * sg.selfsimilar_kernel(p_half, math.expm1(s), 1.0, math.exp(s), nmax=500)
    assert math.isfinite(hk) and hk == pytest.approx(K, rel=1e-12)
    # the mass sum at t = 0.1 reaches n = 201: it stops at its cap
    rule = q.build_rule(p_half, 2)
    with pytest.raises(TruncationError):
        sg.heat_kernel_mass(p_half, 0.1, 1.0, rule=rule, nmax=201)


def test_heat_kernel_mass_stops_once_its_terms_grow(p_half):
    # at t = 0.1 the weighted terms grow past all earlier ones: TruncationError
    # at n = 80, not at the cap of 200 after ever larger terms
    start = time.process_time()
    with pytest.raises(TruncationError, match="grew"):
        sg.heat_kernel_mass(p_half, 0.1, 1.0)
    assert time.process_time() - start < 2.0


def test_laguerre_semigroup_eigen_and_closed_form():
    b = 0.0
    f = RealFn(lambda x: laguerre_eval(2, b, x))
    for t, x in ((0.5, 1.0), (1.5, 2.3)):
        assert sg.laguerre_semigroup(b, t, f, x) == pytest.approx(
            math.exp(-2.0 * t) * laguerre_eval(2, b, x), rel=1e-9, abs=1e-12)
    assert sg.laguerre_semigroup(b, 1.0, monomial(1), 2.0) == pytest.approx(
        1.0 + (2.0 - 1.0) * math.exp(-1.0), rel=1e-10)
    assert sg.laguerre_semigroup(b, 0.7, const_fn(), 1.1) == pytest.approx(1.0)
    # the order-beta Gauss rule needs beta >= 0
    with pytest.raises(DomainError):
        sg.laguerre_semigroup(-0.5, 1.0, monomial(1), 1.0)


def test_intertwine_on_laguerre_and_constants(p_half):
    # f = L_n: both sides equal e^{-nt} P_n
    t = 1.0
    f = RealFn(lambda x: laguerre_eval(2, 0.0, x))
    rep = sg.intertwine_check(p_half, f, t, [0.5, 1.5])
    assert rep["max_discrepancy"] <= 1e-6
    seq = p_coeffs(p_half, 2)
    for x, lv in zip(rep["xs"], rep["left"]):
        assert lv == pytest.approx(math.exp(-2.0 * t) * p_eval(seq, 2, float(x)),
                                   rel=1e-6, abs=1e-8)
    rep1 = sg.intertwine_check(p_half, const_fn(), 0.5, [1.0])
    assert rep1["max_discrepancy"] <= 1e-9


@pytest.mark.parametrize("alpha, beta", [(0.95, 1.0), (0.92, 0.5)])
def test_intertwine_alpha_near_one(alpha, beta):
    # every kernel node the residue series cannot sum takes the contour
    rep = sg.intertwine_check(make_params(alpha, beta), monomial(2), 1.0, [1.0])
    assert rep["max_discrepancy"] <= 1e-6


def test_selfsimilar_mass_and_moments(p_half):
    # mass by quadrature at a kernel-series-friendly time
    tt = 0.8
    rule = q.build_rule(p_half, 120)
    keep = rule.weights > 1e-18
    xs = rule.nodes[keep]
    x0 = 1.0
    kv = np.array([sg.selfsimilar_kernel(p_half, tt, x0, float(y)) for y in xs])
    ev = np.array([d.weight_eval(p_half, float(y)) for y in xs])
    mass = float(rule.weights[keep] @ (kv / ev))
    mean_quad = float(rule.weights[keep] @ (xs * kv / ev))
    assert mass == pytest.approx(1.0, abs=1e-6)
    # first-moment oracle through the semigroup relation:
    # K_t p_1(x) = (1+t) P_{log(1+t)} p_1(x) = (1+t) d_ab + (x - d_ab)
    mean_oracle = (1.0 + tt) * p_half.d_ab + (x0 - p_half.d_ab)
    assert mean_quad == pytest.approx(mean_oracle, rel=1e-6)


def test_selfsimilar_small_time_concentration(p_half):
    # t -> 0: the mean drifts from x only at order t (moment-oracle route;
    # pointwise kernel series is impractical at tiny t by design)
    x0, tt = 1.0, 0.01
    mean = (1.0 + tt) * p_half.d_ab + (x0 - p_half.d_ab)
    assert mean == pytest.approx(x0, rel=0.05)
    e1 = sg.expand(p_half, monomial(1), math.log1p(tt))
    mean_spectral = (1.0 + tt) * sg.evaluate_expansion(e1, x0)
    assert mean_spectral == pytest.approx(mean, rel=1e-10)


def test_selfsimilar_heat_kernel_relation(p_half):
    s = 0.8
    x, y = 1.0, 1.3
    K = sg.selfsimilar_kernel(p_half, s, x, y)
    hk = sg.heat_kernel(p_half, math.log1p(s), x, y / (1.0 + s)) / (1.0 + s)
    assert K == pytest.approx(hk, rel=1e-6)


def test_laguerre_semigroup_array_x():
    calls = []

    def f(y):
        calls.append(np.shape(y))
        return np.exp(-0.5 * y) * (1.0 + y)

    xs = np.array([0.05, 0.7, 1.0, 3.3, 12.0])
    got = sg.laguerre_semigroup(0.0, 0.4, f, xs)
    # f is evaluated once, on the whole array of rule nodes
    assert calls == [(180,)]
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        assert g == pytest.approx(sg.laguerre_semigroup(0.0, 0.4, f, float(x)),
                                  rel=1e-14)
    assert isinstance(sg.laguerre_semigroup(0.0, 0.4, f, 1.0), float)


# four kernel values of the benchmark's kernel list: (kernel, (alpha, beta),
# t, x, y), the value before the double-double Horner tier, the largest
# term |e^(-nt) W_n(y) P_n(x)| (or |(1+t)^(-n-1) W_n(y/(1+t)) P_n(x)|) of
# its sum, and the exact-tier calls it makes now (144, 99, 52 and 65 with
# float64 and mpmath alone)
_BUDGET = [
    ("heat", (0.5, 1.0), 0.5463888695504763, 1.5880466472303207, 5.92716049382716,
     -1.3540660982614138e-16, 1.551271570558435e-08, 104),
    ("selfsimilar", (0.5, 1.0), 0.6037402957432482, 1.0553935860058308, 4.397530864197531,
     1.018555796281635e-05, 0.01469647252972342, 25),
    ("heat", (0.5, 1.0), 0.7130128586820704, 0.16763848396501457, 4.179012345679012,
     3.912360860887235e-15, 0.0008715207195807631, 29),
    ("selfsimilar", (2.0 / 3.0, 0.0), 0.5285090202806902, 2.1714285714285713,
     4.688888888888888, 0.05602079930376709, 0.04810701858379194, 4),
]


@pytest.mark.parametrize("kernel, pair, t, x, y, before, scale, calls", _BUDGET,
                         ids=["heat-0.546", "selfsimilar-0.604", "heat-0.713",
                              "selfsimilar-0.529"])
def test_kernel_escalation_budget(kernel, pair, t, x, y, before, scale, calls, monkeypatch):
    from glspec import specfun as sf
    count = [0]
    horner_exact = sf._horner_exact
    monkeypatch.setattr(sf, "_horner_exact", lambda *a: count.__setitem__(0, count[0] + 1)
                        or horner_exact(*a))
    value = getattr(sg, f"{kernel}_kernel")(make_params(*pair), t, x, y)
    assert abs(value - before) <= 1e-15 * scale
    assert count[0] == calls


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (2.0 / 3.0, 0.0), (0.75, 0.5), (1.0, 0.0)])
def test_kernel_sums_match_the_per_term_loop(alpha, beta):
    # the chunked bases against one scalar w_eval and p_eval per order
    p = make_params(alpha, beta)
    for kernel, t, x, y in itertools.product(("heat", "selfsimilar"), (0.5, 1.0, 2.0),
                                             (0.3, 1.5, 3.0), (0.1, 2.0, 6.0)):
        want, scale = kernel_sum_per_term(p, kernel, t, x, y)
        got = getattr(sg, f"{kernel}_kernel")(p, t, x, y)
        assert abs(got - want) <= 1e-8 * scale, (kernel, t, x, y)


def test_kernel_sums_match_the_per_term_loop_far_out(monkeypatch):
    from glspec import specfun as sf
    # past n = 200 (the sum at t = 0.06 runs to about n = 300)
    p = make_params(0.5, 1.0)
    want, scale = kernel_sum_per_term(p, "heat", 0.06, 1.0, 1.0, nmax=500)
    assert abs(sg.heat_kernel(p, 0.06, 1.0, 1.0, nmax=500) - want) <= 1e-8 * scale
    # at y = 15, alpha = 3/4 the powers y^(k/alpha) pass the double range at
    # k = 197, inside a chunk of W's orders that the sum reaches
    chunks = []
    take = sf._Basis._take

    def spy(self, lo, s, mag):
        chunks.append((self.y, lo, lo + s.size - 1))
        return take(self, lo, s, mag)
    monkeypatch.setattr(sf._Basis, "_take", spy)
    p = make_params(0.75, 0.5)
    want, scale = kernel_sum_per_term(p, "heat", 0.2, 1.0, 15.0, nmax=400)
    assert abs(sg.heat_kernel(p, 0.2, 1.0, 15.0, nmax=400) - want) <= 1e-8 * scale
    y = 15.0 ** (1.0 / 0.75)
    assert 196 * math.log(y) < math.log(np.finfo(float).max) < 197 * math.log(y)
    assert any(v == y and lo < 197 <= hi for v, lo, hi in chunks)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("order", ["k", "p", "q"])
def test_heat_kernel_derivatives_vs_differences(alpha, beta, order):
    # k, p and q are the t, x and y derivatives: the (beta + p) shifted P
    # table and the W^(q) rows against Richardson central differences
    p = make_params(alpha, beta)
    t, x, y = 1.0, 1.2, 1.5
    arg = {"k": t, "p": x, "q": y}[order]

    def kernel(v):
        return sg.heat_kernel(p, *({"k": (v, x, y), "p": (t, v, y), "q": (t, x, v)}[order]))
    # the sums are truncated at 1e-10 of their scale, which the differences
    # of the t derivative feel most (3.6e-8 at alpha = 1/2)
    got = sg.heat_kernel(p, t, x, y, **{order: 1})
    assert got == pytest.approx(richardson_derivative(kernel, arg, 1, h0=0.05), rel=1e-7)


def test_kernel_sums_at_extended_precision(p_half_ext):
    # every order goes to the exact tier, so each term is the per-term loop's
    for kernel in ("heat", "selfsimilar"):
        want, _ = kernel_sum_per_term(p_half_ext, kernel, 1.0, 1.5, 2.0)
        assert getattr(sg, f"{kernel}_kernel")(p_half_ext, 1.0, 1.5, 2.0) == want


@pytest.mark.parametrize("t", [math.nan, 0.0, -1.0, -math.inf])
def test_invalid_times_raise_up_front(p_half, t):
    # the kernels need t > 0, the expansions t >= 0; NaN fails both tests
    f = poly_fn([1.0, 0.5])
    calls = [lambda: sg.heat_kernel(p_half, t, 1.0, 1.5),
             lambda: sg.selfsimilar_kernel(p_half, t, 1.0, 1.5),
             lambda: sg.heat_kernel_mass(p_half, t, 1.0)]
    if not t == 0.0:
        calls += [lambda: sg.expand(p_half, f, t),
                  lambda: sg.laguerre_semigroup(0.0, t, f, 1.0)]
    for call in calls:
        start = time.process_time()
        with pytest.raises(DomainError):
            call()
        assert time.process_time() - start < 0.1


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 0.0)])
def test_kernel_sums_reject_bad_points_and_orders(alpha, beta):
    p = make_params(alpha, beta)
    for x, y in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                 (1.0, 0.0)):
        for kernel in (sg.heat_kernel, sg.selfsimilar_kernel):
            with pytest.raises(DomainError):
                kernel(p, 1.0, x, y)
    for order in ("k", "p", "q"):
        with pytest.raises(DomainError):
            sg.heat_kernel(p, 1.0, 1.0, 1.0, **{order: -1})
    # numpy integer orders are plain orders
    assert sg.heat_kernel(p, 1.0, 1.2, 1.5, k=np.int64(1), p=np.int64(1), q=np.int64(1)) \
        == sg.heat_kernel(p, 1.0, 1.2, 1.5, k=1, p=1, q=1)
