"""Co-eigenfunctions R_n and densities W_n = R_n * e, through two
independent computational routes that cross-validate each other:

  table    finite expansion of R_n in powers x^(j/alpha); its coefficients
           (the partial-Bell formula of r_coeffs) come from one table per
           (alpha, beta), built once in mpmath by a cancellation-free
           recurrence in n.  The production route: R_n, W_n = R_n e and the
           derivatives W_n^(q) at every x > 0
  mellin   trapezoid Mellin-Barnes inversion on a vertical contour
           (oscillatory but cancellation-free); the check route of
           ``glspec verify representations``

R_n is normalised by the unsigned weighted Rodrigues form
R_n = (1/(n! e)) d^n/dx^n (x^n e); then <P_n, R_m> = delta_{nm} and
R_n = L_n^(beta) classical at alpha = 1.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import mpmath as mp
import numpy as np
from scipy.special import gammaln
from scipy.special import loggamma as sp_cloggamma

from .core import (LOG_DOUBLE_MAX, ContourError, DomainError, GLParams,
                   RealFn, mp_ctx, real_pow)
from .density import log_weight_eval, weight_e_ab
from .eigen import laguerre_eval
from .specfun import _escalating_horner

__all__ = ["r_coeffs", "r_coeffs_mp", "r_eval_bell", "r_fn", "w_eval_mellin",
           "w_eval", "w_fn", "w_crude_bound_check", "ContourSpec"]


# --------------------------------------------------------------------------
# Coefficient table and the finite expansion of R_n
# --------------------------------------------------------------------------

#: parameter pairs whose coefficient table is held; a caller that sweeps
#: (alpha, beta) leaves tables no later call uses, so the least recently
#: used are dropped
TABLES_HELD = 16

#: fewest digits a table is built at; its float64 rounding is then correct
_TABLE_MIN_DPS = 32

_tables: "OrderedDict[GLParams, _Table]" = OrderedDict()


@dataclass
class _Table:
    """Rows 0..N of the coefficients c_{n,j} of R_n in mpmath, built at dps
    decimal digits."""

    dps: int
    rows: list


def _extend(rows: list, params: GLParams, n: int) -> None:
    """Append rows len(rows)..n, at the current working precision, by

        n c_{n,j} = (j/alpha + beta_alpha + n) c_{n-1,j} - c_{n-1,j-1} / alpha.

    Writing x^n e(x) as its power series in y = x^(1/alpha) and
    differentiating term by term gives R_n(x) = (1/n!) e^y
    sum_m (-1)^m f_n(m) y^m / m! with f_n(m) = prod_{i=1..n}(m/alpha +
    beta_alpha + i).  In the falling-factorial basis of m, where
    f_n = f_{n-1} (m/alpha + beta_alpha + n), the sum over m collapses to
    c_{n,j} = (-1)^j psi_{n,j} / n!, and every term of the psi recurrence
    is positive (beta_alpha >= 0): the coefficients alternate in sign and
    are built without cancellation.
    """
    inv = 1 / mp.mpf(params.alpha)
    ba = mp.mpf(params.beta) + inv - 1
    for m in range(len(rows), n + 1):
        prev = rows[-1]
        row = [(ba + m) * prev[0] / m]
        row += [((ba + m + j * inv) * prev[j] - prev[j - 1] * inv) / m
                for j in range(1, m)]
        row.append(-prev[-1] * inv / m)
        rows.append(row)


def _rows(params: GLParams, n: int, dps: int) -> list:
    """The coefficient table of params, holding rows 0..n at no fewer than
    dps digits.

    A table is extended in n as larger orders are asked for, and rebuilt
    only for a caller that needs more digits than it holds, at dps rounded
    up to a multiple of 16 (and at least 32).
    """
    if n < 0:
        raise DomainError("order must be >= 0")
    table = _tables.pop(params, None)
    if table is None or table.dps < dps:
        table = _Table(max(_TABLE_MIN_DPS, -(-dps // 16) * 16), [[mp.mpf(1)]])
    if len(table.rows) <= n:
        with mp_ctx(table.dps):
            _extend(table.rows, params, n)
    _tables[params] = table
    if len(_tables) > TABLES_HELD:
        _tables.popitem(last=False)
    return table.rows


def r_coeffs_mp(params: GLParams, n: int) -> list:
    """Coefficients of R_n (see r_coeffs) as mpmath numbers with at least the
    current working precision: row n of the params' coefficient table, in a
    fresh list."""
    return list(_rows(params, n, mp.mp.dps)[n])


@lru_cache(maxsize=256)
def r_coeffs(params: GLParams, n: int) -> np.ndarray:
    """Coefficients c_j with R_n(x) = sum_j c_j x^(j/alpha), j = 0..n.

    c_j = (1/n!) sum_{k>=j} C(n,k) [G(n+b+1/a)/G(k+b+1/a)] (-1)^(k+j) B_{k,j}
    with partial Bell polynomials B_{k,j}.  The coefficient table builds the
    same numbers by a cancellation-free recurrence in n (see _extend); this
    is its row n, correctly rounded to float64.  At alpha = 1 these are the
    classical Laguerre monomial coefficients.
    """
    return np.array([float(c) for c in _rows(params, n, _TABLE_MIN_DPS)[n]])


def _r_horner(params: GLParams, n: int, x: float, log: bool):
    """R_n(x) from its finite expansion in powers of y = x^(1/alpha) (the
    classical Laguerre recurrence at alpha = 1); with log, (sign, log|R_n|)."""
    if x <= 0.0:
        raise DomainError("co-eigenfunctions are evaluated on x > 0")
    if n < 0:
        raise DomainError("order must be >= 0")
    if params.is_classical:
        v = laguerre_eval(n, params.beta, x)
        if not log:
            return v
        return math.copysign(1.0, v), (math.log(abs(v)) if v else -math.inf)
    return _escalating_horner(
        r_coeffs(params, n), real_pow(x, 1.0 / params.alpha), params,
        lambda: (r_coeffs_mp(params, n), mp.mpf(x) ** (1 / mp.mpf(params.alpha))),
        log=log)


def r_eval_bell(params: GLParams, n: int, x: float) -> float:
    """R_n(x) from the finite power expansion in y = x^(1/alpha), with the
    coefficients of the cached table."""
    return _r_horner(params, n, x, log=False)


def r_fn(params: GLParams, n: int) -> RealFn:
    """R_n as a RealFn carrying its generalized power expansion."""
    inv = 1.0 / params.alpha          # 1.0 on the classical branch
    pw = tuple((float(c), j * inv) for j, c in enumerate(r_coeffs(params, n)))
    return RealFn(lambda x: r_eval_bell(params, n, x),
                  description=f"R_{n}", powers=pw)


def _w_coeffs_mp(params: GLParams, n: int, q: int) -> list:
    """Coefficients d_j of W_n^(q)(x) = x^(-q) e(x) sum_j d_j y^j,
    y = x^(1/alpha), in mpmath at the current working precision.

    d = row n of the table for q = 0, then differentiating x^(ba - k) y^j
    e^(-y) term by term, with ba = beta + 1/alpha - 1,

        d^(k+1)_j = (ba - k + j/alpha) d^(k)_j - d^(k)_(j-1) / alpha.

    ba is formed as 1/alpha + (beta - 1), exact where beta - 1 is, so that
    the exact zeros of W_n^(q) (W_0'(1) at beta = 1) stay exact.
    """
    inv = 1 / mp.mpf(params.alpha)
    ba = inv + (mp.mpf(params.beta) - 1)
    d = r_coeffs_mp(params, n)
    for k in range(q):
        d = [(ba - k + j * inv) * c - (d[j - 1] * inv if j else 0)
             for j, c in enumerate(d)] + [-d[-1] * inv]
    return d


@lru_cache(maxsize=256)
def _w_coeffs(params: GLParams, n: int, q: int) -> np.ndarray:
    """The d_j of ``_w_coeffs_mp``, formed at 32 digits and rounded to
    float64."""
    with mp_ctx(_TABLE_MIN_DPS):
        return np.array([float(c) for c in _w_coeffs_mp(params, n, q)])


# --------------------------------------------------------------------------
# Mellin-Barnes path
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Vertical-contour parameters for the Mellin inversion of W_n."""

    a: float                  # abscissa, > max(0, 1 - beta - 1/alpha)
    h: float                  # trapezoid step
    height: float             # truncation height B


def default_contour(params: GLParams, n: int = 0) -> ContourSpec:
    a0 = max(1.0, 1.5 - params.beta - 1.0 / params.alpha)
    h = 0.05 / params.alpha
    # height solves a pi B / 2 - n log B = 18 log 10 + 6 (polynomial factor
    # from the gamma ratio slows the exponential decay)
    B = 2.0 * 18.0 * math.log(10.0) / (params.alpha * math.pi)
    for _ in range(4):
        B = 2.0 * (18.0 * math.log(10.0) + 6.0 + n * math.log(max(B, 3.0))) \
            / (params.alpha * math.pi)
    return ContourSpec(a0, h, B)


def w_eval_mellin(params: GLParams, n: int, x: float,
                  contour: Optional[ContourSpec] = None) -> float:
    """W_n(x) by trapezoid quadrature of the Mellin-Barnes inversion

        W_n(x) = (-1)^n/(2 pi n! G(ab+1)) Int x^{-s} prod_{j=1}^n (s-j)
                 * Gamma(alpha s - alpha + alpha beta + 1) dt,  s = a + i t.

    The gamma ratio G(s)/G(s-n) is the degree-n polynomial prod (s-j), so the
    integrand has no poles on the contour.  Raises ContourError when the
    integrand fails its decay estimate at the truncation height.
    """
    if x <= 0.0:
        raise DomainError("W_n is evaluated on x > 0")
    a, b = params.alpha, params.beta
    if contour is None:
        contour = default_contour(params, n)
    if contour.a <= max(0.0, 1.0 - b - 1.0 / a):
        raise DomainError("contour abscissa left of the analyticity strip")
    t = np.arange(0.0, contour.height, contour.h)
    s = contour.a + 1j * t
    lv = -s * math.log(x) + sp_cloggamma(a * s - a + a * b + 1.0)
    with np.errstate(divide="ignore"):
        for j in range(1, n + 1):
            lv = lv + np.log(s - j)
    vals = np.exp(lv)
    peak = float(np.max(np.abs(vals)))
    if abs(vals[-1]) > 1e-12 * peak:
        raise ContourError("Mellin contour integrand not decayed at height B; "
                           "increase height or adjust the abscissa")
    vals[0] *= 0.5
    integral = 2.0 * float(np.sum(vals.real)) * contour.h
    pref = (-1.0) ** n / (2.0 * math.pi) * math.exp(-gammaln(n + 1.0)
                                                    - gammaln(a * b + 1.0))
    return pref * integral


# --------------------------------------------------------------------------
# W_n^(q) and wrappers
# --------------------------------------------------------------------------

def w_eval(params: GLParams, n: int, x: float, q: int = 0) -> float:
    """W_n^(q)(x) at every x > 0 from the cached coefficient table.

    q = 0: R_n(x) e(x); q >= 1: x^(-q) e(x) sum_j d_j x^(j/alpha) with the
    coefficients of ``_w_coeffs``.  The sum goes through the package's
    escalating Horner and is formed as sign * exp(log|sum| + log e(x) -
    q log x), so that a huge sum and an underflowed e(x) give the correctly
    rounded product, not a false 0 or an overflow (W_5(2) at alpha = 0.1 is
    about -9.1e-424 and comes back as -0.0).
    """
    if q < 0:
        raise DomainError("derivative order must be >= 0")
    if q == 0:
        sign, lr = _r_horner(params, n, x, log=True)
    else:
        if x <= 0.0:
            raise DomainError("W_n is evaluated on x > 0")
        sign, lr = _escalating_horner(
            _w_coeffs(params, n, q), real_pow(x, 1.0 / params.alpha), params,
            lambda: (_w_coeffs_mp(params, n, q), mp.mpf(x) ** (1 / mp.mpf(params.alpha))),
            log=True)
        lr -= q * math.log(x)
    lw = lr + log_weight_eval(weight_e_ab(params), x)
    return sign * math.inf if lw > LOG_DOUBLE_MAX else math.copysign(math.exp(lw), sign)


def w_fn(params: GLParams, n: int, q: int = 0) -> RealFn:
    return RealFn(lambda x: w_eval(params, n, x, q), description=f"W_{n}^({q})")


def w_crude_bound_check(params: GLParams, n: int, q: int, x: float) -> dict:
    """Ratio of |W_n^(q)(x)| to its stretched-exponential envelope.

    Valid on 0 < x < exp(-2 a) ((1+a)/a)^a n^a; DomainError outside.
    """
    a, b = params.alpha, params.beta
    xmax = math.exp(-2.0 * a) * ((1.0 + a) / a) ** a * n ** a
    if not (0.0 < x < xmax):
        raise DomainError(f"x must lie in (0, {xmax:.4g}) for n = {n}")
    val = w_eval(params, n, x, q)
    expo = b + 1.0 / a - q
    env = math.exp(expo * math.log(x)
                   + (abs(b + 1.0 / a - 1.0 - q) + 2.0) * math.log(max(n, 2))
                   + params.bar_frak_t * (n * x) ** (1.0 / (a + 1.0)))
    return {"n": n, "q": q, "x": x, "value": val, "envelope": env,
            "ratio": abs(val) / env}
