import math

import pytest

from glspec import asymptotics as asy
from glspec.core import make_params

from oracles import w_density_mp


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
