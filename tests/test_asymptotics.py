import math
import time

import pytest

from glspec import asymptotics as asy
from glspec.core import asymp_constants, make_params

from oracles import W_ORACLE_Y_CAP, w_density_mp


def _w_oracle(params, n, x):
    """|W_n(x)| by direct summation, with terms and digits enough for the
    alternating series: its terms peak near k = x^(1/alpha), at a size of
    about exp(y) (y/alpha)^n times the result."""
    y = x ** (1.0 / params.alpha)
    kmax = int(2 * y + 20 * math.sqrt(y) + 4 * n + 100)
    dps = int((y + n * math.log1p(y / params.alpha)) / math.log(10)) + 40
    return abs(w_density_mp(params.alpha, params.beta, n, 0, x, kmax=kmax, dps=dps))


@pytest.mark.parametrize("region", ["fixed_x", "middle", "suboptimal", "large"])
def test_bound_region_value_vs_oracle(region):
    # n = 40 at fixed_x is where the alternating Wright series loses 4e-7
    p = make_params(0.4, 2.4368)
    rep = asy.bound_region_check(p, 40, region)[0]
    assert rep["value"] == pytest.approx(_w_oracle(p, 40, rep["x"]), rel=1e-9)


@pytest.mark.parametrize("region", ["middle", "large"])
def test_w_oracle_sizes_its_defaults(region):
    # with kmax and dps left out, w_density_mp sizes both from x^(1/alpha)
    # and n; its old fixed 600 terms at 60 digits were off by 1e44 (middle)
    # and 6e87 (large) here
    p = make_params(0.4, 2.4368)
    x = asy.bound_region_check(p, 40, region)[0]["x"]
    assert abs(w_density_mp(p.alpha, p.beta, 40, 0, x)) == pytest.approx(
        _w_oracle(p, 40, x), rel=1e-12, abs=0.0)


def test_w_oracle_refuses_defaults_past_cap():
    # at (0.1, 0), x = 2 (y = 1024) the old defaults stopped where the terms
    # were near e^(0.6 y) and returned -8.6e19 (q = 0) and -2.44e32 (q = 3),
    # after 36-46 s, for a value below the double range
    t0 = time.perf_counter()
    for q in (0, 3):
        with pytest.raises(ValueError):
            w_density_mp(0.1, 0.0, 10, q, 2.0)
    assert time.perf_counter() - t0 < 1.0
    # just under the cap the defaults give the value of a generous explicit sum
    x = (0.99 * W_ORACLE_Y_CAP) ** 0.1
    assert w_density_mp(0.1, 0.0, 10, 3, x) == pytest.approx(
        w_density_mp(0.1, 0.0, 10, 3, x, kmax=1200, dps=300), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.75, 0.5), (0.4, 0.73), (1.0 / 3.0, 2.0),
                                         (0.9, 0.0)])
def test_norm_envelope_holds_over_15_to_25(alpha, beta):
    rep = asy.norm_envelope_check(make_params(alpha, beta), 15, 25)
    assert rep["ns"] == list(range(15, 26))
    assert rep["main_ok"] and rep["aux_ok"], (max(rep["main_rates"]), max(rep["aux_rates"]))
    if (alpha, beta) == (0.5, 1.0):
        # the auxiliary norm of R_n, the polynomial sum_j c_j u^j in u = x^2
        assert max(rep["aux_rates"]) == pytest.approx(0.731, abs=5e-4)
        assert rep["aux_bound"] == pytest.approx(4.14, abs=5e-3)


# --------------------------------------------------------------------------
# the saddle maps: identities the bounds rely on
# --------------------------------------------------------------------------

_SADDLE_ALPHAS = (0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("alpha", _SADDLE_ALPHAS)
def test_kappa_bar_endpoints_are_the_region_constants(alpha):
    # A_bar at 0+, B_bar at pi/(2(1+alpha)), C_bar at pi/2-; the last moves
    # by about 250 times its distance from pi/2 at alpha = 0.99
    c = asymp_constants(alpha)
    assert asy.kappa_bar(alpha, 1e-9) == pytest.approx(c.A_bar, rel=1e-15)
    assert asy.kappa_bar(alpha, math.pi / (2.0 * (1.0 + alpha))) == pytest.approx(c.B_bar,
                                                                                   rel=1e-15)
    assert asy.kappa_bar(alpha, 0.5 * math.pi - 1e-12) == pytest.approx(c.C_bar, rel=1e-9)


@pytest.mark.parametrize("alpha", _SADDLE_ALPHAS)
def test_tau_star_is_the_critical_point_of_g(alpha):
    # g'(tau_star) = 0 to 1.6e-12 (at varsigma = 40) above alpha/(1+alpha),
    # tau_star = 0 at or below it; g_func_prime is g's derivative (6e-11
    # against a central difference) and H_star adds g(tau_star)/varsigma
    # to H_kappa only where the saddle is active
    thr = alpha / (1.0 + alpha)
    for vs in (1.001 * thr, 1.5 * thr, 0.9, 1.0, 1.7, 5.0, 40.0):
        ts = asy.tau_star(alpha, vs)
        assert ts > 0.0 and abs(asy.g_func_prime(alpha, vs, ts)) <= 1e-11, vs
        assert asy.g_func(alpha, vs, ts) >= max(asy.g_func(alpha, vs, f * ts) for f in (0.9, 1.1))
        t, h = ts + 1.0, 1e-5 * (ts + 1.0)
        fd = (asy.g_func(alpha, vs, t + h) - asy.g_func(alpha, vs, t - h)) / (2.0 * h)
        assert asy.g_func_prime(alpha, vs, t) == pytest.approx(fd, rel=1e-9, abs=1e-9)
        assert asy.H_star(alpha, 2.0, vs) - asy.H_kappa(alpha, 2.0, vs) == pytest.approx(
            asy.g_func(alpha, vs, ts) / vs, rel=1e-14, abs=1e-15)
    for vs in (thr, 0.5 * thr, 0.01):
        assert asy.tau_star(alpha, vs) == 0.0
        assert asy.H_star(alpha, 2.0, vs) == asy.H_kappa(alpha, 2.0, vs)


@pytest.mark.parametrize("alpha", _SADDLE_ALPHAS)
def test_saddle_state_agrees_with_kappa_bar(alpha):
    thr = alpha / (1.0 + alpha)
    for vs in (1.001 * thr, 0.9, 1.7, 40.0):
        st = asy.saddle_state(alpha, vs)
        assert isinstance(st, asy.SaddleState) and st.varsigma == vs
        assert st.theta_star == math.atan(asy.tau_star(alpha, vs))
        assert st.kappa_bar == asy.kappa_bar(alpha, st.theta_star)
        assert st.kappa == st.kappa_bar ** (1.0 / alpha) / alpha
        # theta_star inverts varsigma_of_theta to 4.4e-12
        assert asy.varsigma_of_theta(alpha, st.theta_star) == pytest.approx(vs, rel=2e-11)
    # below the threshold the state takes kappa_bar's 0+ limit, A_bar
    assert asy.saddle_state(alpha, 0.5 * thr).kappa_bar == (1.0 + alpha) ** (1.0 + alpha)


@pytest.mark.parametrize("alpha", _SADDLE_ALPHAS)
def test_H_alpha_eta_is_continuous_where_its_branches_meet(alpha):
    # both branches give -log(alpha) at eta = (1+alpha)^(-1/alpha)
    eta0 = (1.0 + alpha) ** (-1.0 / alpha)
    assert asy.H_alpha_eta(alpha, eta0) == pytest.approx(-math.log(alpha), rel=1e-14, abs=1e-14)
    below = asy.H_alpha_eta(alpha, eta0 * (1.0 - 1e-12))
    assert below == pytest.approx(asy.H_alpha_eta(alpha, eta0), abs=1e-10)
