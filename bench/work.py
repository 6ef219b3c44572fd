"""What each op calls in glspec, and how its result is judged.

`run_op` is the timed part: it makes the public glspec calls of one op and
returns a list of values on the op's grid (points), a float (kernel) or a
residual (verify).  `judge` runs after the timed loop and compares the
result with the op's reference or with the tolerance of its check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from glspec import asymptotics, coeigen, core, density, eigen, quad, semigroup
from glspec.specfun import log_gamma

from ops import KERNEL_PAIRS, POINT_PAIRS, grid

#: relative tolerance of a points or kernel value: the worst relative error
#: the precision policy allows a float64 result, COND_THRESHOLD * 1e-14
VALUE_RTOL = core.COND_THRESHOLD * 1e-14

#: tolerance of each verify check, as `glspec verify` sets it; r_norm is
#: compared with its reference at the precision-policy bound
VERIFY_TOL = {
    "gram_biorth": 1e-6,
    "eigen_residual": 1e-7,
    "r_norm": VALUE_RTOL,
    "bound_region": 10.0,        # ratio40 / ratio20 of the envelope ratios
    "intertwine": 1e-6,
    "mellin": 1e-10,
}

DIGITS_CAP = 15.0

_EIGEN_GRID = np.linspace(0.01, 10.0, 31)
_MELLIN_POINTS = [complex(re, im) for re in (-0.4, 0.2, 0.7, 1.5, 2.5)
                  for im in (0.0, 0.4, -1.1, 2.0)]


class Params:
    """GLParams of the fixed pairs, built once per process before timing."""

    def __init__(self):
        self.points = [core.make_params(a, b) for a, b in POINT_PAIRS]
        self.kernel = [core.make_params(a, b) for a, b in KERNEL_PAIRS]


def run_op(op: tuple, pp: Params):
    kind = op[0]
    if kind == "P":
        _, i, n, x0 = op
        seq = eigen.p_coeffs(pp.points[i], n)
        return [eigen.p_eval(seq, n, x) for x in grid(kind, x0)]
    if kind == "R":
        _, i, n, x0 = op
        return [coeigen.r_eval_bell(pp.points[i], n, x) for x in grid(kind, x0)]
    if kind == "W":
        _, i, n, x0 = op
        return [coeigen.w_eval(pp.points[i], n, x) for x in grid(kind, x0)]
    if kind == "lambda":
        _, i, z0 = op
        return [density.lambda_value(pp.points[i], z) for z in grid(kind, z0)]
    if kind == "heat":
        _, i, t, x, y = op
        return semigroup.heat_kernel(pp.kernel[i], t, x, y)
    if kind == "selfsimilar":
        _, i, t, x, y = op
        return semigroup.selfsimilar_kernel(pp.kernel[i], t, x, y)
    # verify: fresh parameters for every op
    params = core.make_params(op[1], op[2])
    if kind == "gram_biorth":
        N = op[3]
        G = quad.gram_biorth(params, N)
        return float(np.abs(G - np.eye(N + 1)).max())
    if kind == "eigen_residual":
        n = op[3]
        f = eigen.p_fn(params, n)
        sup = eigen.p_sup(params, max(n, 1))
        return max(abs(semigroup.generator_apply(params, f, float(x)) + n * f(float(x)))
                   for x in _EIGEN_GRID) / sup
    if kind == "r_norm":
        nrm, aux = quad.r_norm(params, op[3])
        return nrm if math.isfinite(aux) and aux > 0.0 else math.nan
    if kind == "bound_region":
        region = op[3]
        r20 = asymptotics.bound_region_check(params, 20, region)[0]["ratio"]
        r40 = asymptotics.bound_region_check(params, 40, region)[0]["ratio"]
        return r40 / max(r20, 1e-300)
    if kind == "intertwine":
        rep = semigroup.intertwine_check(params, core.monomial(2), 1.0, [1.0])
        return rep["max_discrepancy"]
    if kind == "mellin":
        worst = 0.0
        for s in _MELLIN_POINTS:
            lhs = density.mellin_lambda(params, s) * density.mellin_e(params, s)
            rhs = cmath.exp(log_gamma(s + 1.0))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        return worst
    raise ValueError(f"unknown op kind {kind!r}")


def _digits(err: float) -> float:
    if not math.isfinite(err):
        return 0.0
    return DIGITS_CAP if err <= 0.0 else min(DIGITS_CAP, max(0.0, -math.log10(err)))


def judge(op: tuple, value, ref):
    """(passed, digits) for one returned result.

    A `points` op passes when every value on its grid does, and its digits
    are those of its worst value.  digits is None for checks without a
    residual (the bound-region ratio).
    """
    kind = op[0]
    if isinstance(value, list):
        verdicts = [judge((kind,), v, r) for v, r in zip(value, ref)]
        return all(p for p, _ in verdicts), min(d for _, d in verdicts)
    value = float(value)
    if kind in VERIFY_TOL:
        if kind == "r_norm":
            err = abs(value - ref) / abs(ref) if math.isfinite(value) else math.inf
        else:
            err = value if math.isfinite(value) else math.inf
        passed = err <= VERIFY_TOL[kind]
        return passed, (None if kind == "bound_region" else _digits(err))
    if not math.isfinite(value):
        return False, 0.0
    ref_value, scale = ref if kind in ("heat", "selfsimilar") else (ref, 0.0)
    diff = abs(value - ref_value)
    rel = diff / abs(ref_value) if ref_value != 0.0 else diff
    # a spectral sum is held to its own scale, the largest term, since its
    # terms are only accurate relative to themselves
    return diff <= VALUE_RTOL * max(abs(ref_value), scale), _digits(rel)
