import math
import time

import pytest

from glspec import asymptotics as asy
from glspec.core import make_params

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
