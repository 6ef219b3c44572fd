"""Co-eigenfunctions R_n and densities W_n = R_n * e, through two
independent computational routes that cross-validate each other:

  table    finite expansion of R_n in powers x^(j/alpha); its coefficients
           (the partial-Bell formula of r_coeffs) are the exact integer
           rows of the "R" table of ``core.coeff_table``, the package's one
           coefficient cache, each face of it one rounding.  The production
           route: R_n, W_n = R_n e and the derivatives W_n^(q) at every x > 0
  mellin   trapezoid Mellin-Barnes inversion on a vertical contour
           (oscillatory but cancellation-free); the check route of
           ``glspec verify representations``

R_n is normalised by the unsigned weighted Rodrigues form
R_n = (1/(n! e)) d^n/dx^n (x^n e); then <P_n, R_m> = delta_{nm} and
R_n = L_n^(beta) classical at alpha = 1.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
from scipy.special import gammaln
from scipy.special import loggamma as sp_cloggamma

from .core import (LOG_DOUBLE_MAX, MAX_ESCALATED_DPS, ContourError, DomainError,
                   GLParams, RealFn, coeff_faces, coeff_table, mp_ctx, real_pow)
from .density import log_weight_eval
from .eigen import laguerre_eval
from .specfun import _Basis, _dd_ratio, _escalating_horner, _log_form

__all__ = ["r_coeffs", "r_eval_bell", "r_fn", "w_eval_mellin",
           "w_eval", "w_crude_bound_check"]


# --------------------------------------------------------------------------
# Coefficient table and the finite expansion of R_n
# --------------------------------------------------------------------------

def _dyadic(params: GLParams) -> tuple:
    """(A, B, L, Db): alpha = A / Da and beta = B / Db exactly, L = Da Db."""
    (A, Da), (B, Db) = params.alpha.as_integer_ratio(), params.beta.as_integer_ratio()
    return A, B, Da * Db, Db


def _extend(rows: list, params: GLParams, n: int) -> None:
    """Append rows len(rows)..n of the "R" table: the exact integers s_{m,j}
    of c_{m,j} = s_{m,j} / ((A Db)^m m!) (see ``_dyadic``).  The Rodrigues
    form, expanded in y = x^(1/alpha) and summed in the falling-factorial
    basis, gives (beta_alpha = beta + 1/alpha - 1)

        m c_{m,j} = (j/alpha + beta_alpha + m) c_{m-1,j} - c_{m-1,j-1} / alpha,

    scaled by (alpha L)^m an integer recurrence free of cancellation:

        s_{m,j} = T_{m,j} s_{m-1,j} - L s_{m-1,j-1},
        T_{m,j} = L (alpha beta + 1 + alpha (m - 1) + j) = AB + L + (m - 1) A Db + j L > 0.
    """
    A, B, L, Db = _dyadic(params)
    if not rows:
        rows.append([1])
    for m in range(len(rows), n + 1):
        prev, t = rows[-1], A * B + L + (m - 1) * A * Db
        rows.append([t * prev[0]] + [(t + j * L) * prev[j] - L * prev[j - 1]
                                     for j in range(1, m)] + [-L * prev[-1]])


def _exact(params: GLParams, n: int, q: int = 0) -> tuple:
    """(nums, den): the d_j of W_n^(q)(x) = x^(-q) e(x) sum_j d_j y^j,
    y = x^(1/alpha) (the c_j of R_n at q = 0), as exact ratios nums[j] / den.
    Differentiating x^(ba - k) y^j e^(-y) termwise (ba = beta_alpha) gives
    d^(k+1)_j = (ba - k + j/alpha) d^(k)_j - d^(k)_(j-1) / alpha; scaled by
    (alpha L)^k like the rows, the step is in integers too, because
    alpha beta_alpha = alpha beta + 1 - alpha is dyadic:

        e^(k+1)_j = (AB + L - (k + 1) A Db + j L) e^(k)_j - L e^(k)_(j-1).

    The exact zeros of W_n^(q) (W_0'(1) at beta = 1) stay exact.  Held
    with the den (A Db)^(n + q) n! as face ("E", n, q) of the "R" table.
    """
    table = coeff_table("R", _extend, params, n)
    held = table.get(("E", n, q))
    if held is None:
        A, B, L, Db = _dyadic(params)
        e = table.rows[n]
        for k in range(q):
            u = A * B + L - (k + 1) * A * Db
            e = [(u + j * L) * c - (L * e[j - 1] if j else 0) for j, c in enumerate(e)] + [-L * e[-1]]
        table["E", n, q] = held = e, (A * Db) ** (n + q) * math.factorial(n)
    return held


@lru_cache(maxsize=256)
def r_coeffs(params: GLParams, n: int) -> np.ndarray:
    """Coefficients c_j with R_n(x) = sum_j c_j x^(j/alpha), j = 0..n.

    c_j = (1/n!) sum_{k>=j} C(n,k) [G(n+b+1/a)/G(k+b+1/a)] (-1)^(k+j) B_{k,j}
    with partial Bell polynomials B_{k,j}: row n of the exact table (see
    _extend) correctly rounded to float64 (read-only, the hi row of
    ``_w_coeffs(params, n, 0)``).  At alpha = 1 these are the classical
    Laguerre monomial coefficients.
    """
    return _w_coeffs(params, operator.index(n), 0)[0]


@lru_cache(maxsize=4096)
def _point(x: float, alpha: float) -> list:
    """[(hi, lo), y, prec]: y = x^(1/alpha), one mpmath power at prec bits
    (first 32 digits), and the double-double (hi, lo), correctly rounded,
    the second tier reads from that first y.  Kernel sums meet each x at every n."""
    with mp_ctx(32):
        y = mp.mpf(x) ** (1 / mp.mpf(alpha))
        hi = float(y)
        return [(hi, float(y - hi)), y, mp.mp.prec]


def _y_exact(x: float, alpha: float, bits: int) -> tuple:
    """(Y, D, y_bits): y = x^(1/alpha) = Y / D, D a power of 2, known to
    y_bits >= bits; exact (None) at x = 1 and at alpha = 2^-m where
    x^(2^m) fits within MAX_ESCALATED_DPS digits.  Else the y of ``_point``,
    redone with more bits where needed: 1/alpha rounded at p bits moves y
    by |log y| 2^-p relative, the power by about 2^-p more."""
    (X, Dx), (A, Da) = x.as_integer_ratio(), alpha.as_integer_ratio()
    if x == 1.0 or A == 1 and X.bit_length() * Da <= mp.libmp.dps_to_prec(MAX_ESCALATED_DPS):
        return X ** Da, Dx ** Da, None
    point = _point(x, alpha)
    slack = int(abs(math.log(x)) / alpha + 2.0).bit_length()
    if point[2] - slack < bits:
        with mp.workprec(bits + slack):
            point[1:] = mp.mpf(x) ** (1 / mp.mpf(alpha)), bits + slack
    m, e = point[1].man_exp
    return (m << e, 1, point[2] - slack) if e >= 0 else (m, 1 << -e, point[2] - slack)


def _dd_args(params: GLParams, q: int, orders: list, x: float) -> tuple:
    """W_n^(q), n in orders, at x for the double-double tier: the rows of
    ``_w_coeffs`` and the double-double y = x^(1/alpha) of ``_point``."""
    return [_w_coeffs(params, n, q) for n in orders], _point(x, params.alpha)[0]


def _exact_args(params: GLParams, q: int, n: int, x: float, bits: int) -> tuple:
    """W_n^(q) at x for the exact tier: the row of ``_exact`` and
    y = x^(1/alpha) of ``_y_exact``."""
    return (*_exact(params, n, q), None, *_y_exact(x, params.alpha, bits))


def _w_horner(params: GLParams, n: int, q: int, x, log: bool):
    """sum_j d_j y^j of W_n^(q)(x) = x^(-q) e(x) sum_j d_j y^j, y =
    x^(1/alpha) (R_n(x) at q = 0, the classical Laguerre polynomial at
    alpha = 1), by the escalating Horner at a float x or at every point of
    an ndarray x; with log, (sign, log|sum|)."""
    arr = isinstance(x, np.ndarray)
    if not (((0.0 < x) & (x < math.inf)).all() if arr else 0.0 < x < math.inf):
        raise DomainError(f"co-eigenfunctions are evaluated on 0 < x < inf, got {x}")
    if n < 0:
        raise DomainError("order must be >= 0")
    if params.is_classical and q == 0:
        v = laguerre_eval(n, params.beta, x)
        return _log_form(v) if log else v
    a, d = params.alpha, _w_coeffs(params, n, q)
    if arr:
        with np.errstate(over="ignore"):
            y = np.power(x, 1.0 / a)
    else:
        y = real_pow(x, 1.0 / a)
    return _escalating_horner(d[0], y, params, n, x, partial(_dd_args, params, q),
                              partial(_exact_args, params, q), log=log)


def r_eval_bell(params: GLParams, n: int, x):
    """R_n(x) from the finite power expansion in y = x^(1/alpha), with the
    coefficients of the cached table; x a float or an ndarray."""
    return _w_horner(params, operator.index(n), 0, x, log=False)


def r_fn(params: GLParams, n: int) -> RealFn:
    """R_n as a RealFn carrying its generalized power expansion."""
    inv = 1.0 / params.alpha          # 1.0 on the classical branch
    pw = tuple((float(c), j * inv) for j, c in enumerate(r_coeffs(params, n)))
    return RealFn(lambda x: r_eval_bell(params, n, x),
                  description=f"R_{n}", powers=pw)


@lru_cache(maxsize=256)
def _w_coeffs(params: GLParams, n: int, q: int) -> tuple:
    """The d_j of ``_exact`` (the c_j of R_n at q = 0) as read-only
    double-double rows (hi, lo), each part one rounding of the exact value
    (``_dd_ratio``)."""
    return _dd_ratio(*_exact(params, n, q))


def _w_rows(params: GLParams, q: int, hi: int) -> np.ndarray:
    """The hi rows of ``_w_coeffs(params, n, q)``, n = 0..(at least) hi,
    stacked as one read-only matrix, zero past each row's degree n + q:
    face ("W", q) of the "R" table, grown by the orders a caller asks for."""
    faces = coeff_faces("R", params)
    rows = faces.get(("W", q), np.zeros((0, q)))
    if rows.shape[0] <= hi:
        grown = np.zeros((hi + 1, hi + q + 1))
        grown[:rows.shape[0], :rows.shape[1]] = rows
        for n in range(rows.shape[0], hi + 1):
            grown[n, :n + q + 1] = _w_coeffs(params, n, q)[0]
        grown.flags.writeable = False
        faces["W", q] = rows = grown
    return rows


class _WBasis:
    """W_n^(q)(x) at one x > 0 for the orders of a kernel sum: ``value(n)``
    reads the log form of the sum in y = x^(1/alpha) from ``basis``, whose
    chunks of the stacked rows of ``_w_rows`` the caller loads
    (``specfun._basis_values``), and gives ``_w_value`` of it, as
    ``w_eval`` does, so each value has ``w_eval``'s bits.  At alpha = 1 and
    q = 0 (``basis`` None) the sum is ``w_eval``'s ``eval_genlaguerre``
    call."""

    def __init__(self, params: GLParams, x: float, q: int = 0):
        if q < 0:
            raise DomainError("derivative order must be >= 0")
        if not 0.0 < x < math.inf:
            raise DomainError(f"co-eigenfunctions are evaluated on 0 < x < inf, got {x}")
        self.params, self.x = params, x
        self.log_x, self.log_e = q * math.log(x), log_weight_eval(params, x)
        self.basis = None
        if not (params.is_classical and q == 0):
            a = params.alpha
            self.basis = _Basis(params, real_pow(x, 1.0 / a), x,
                                lambda lo, hi: _w_rows(params, q, hi)[lo:hi + 1, :hi + q + 1],
                                partial(_dd_args, params, q), partial(_exact_args, params, q),
                                log=True)

    def value(self, n: int) -> float:
        if self.basis is None:
            s = _log_form(laguerre_eval(n, self.params.beta, self.x))
        else:
            s = self.basis.sum(n)
        return _w_value(*s, self.log_x, self.log_e)


# --------------------------------------------------------------------------
# Mellin-Barnes path
# --------------------------------------------------------------------------

def w_eval_mellin(params: GLParams, n: int, x: float) -> float:
    """W_n(x) by trapezoid quadrature of the Mellin-Barnes inversion

        W_n(x) = (-1)^n/(2 pi n! G(ab+1)) Int x^{-s} prod_{j=1}^n (s-j)
                 * Gamma(alpha s - alpha + alpha beta + 1) dt,  s = c + i t,

    on the abscissa c = max(1, 3/2 - beta - 1/alpha), right of the strip
    edge max(0, 1 - beta - 1/alpha), at step h = 0.05/alpha up to the
    height B of alpha pi B / 2 - n log B = 18 log 10 + 6 (the polynomial
    factor slows the gamma's exponential decay).  The gamma ratio
    G(s)/G(s-n) is the degree-n polynomial prod (s-j), so the integrand has
    no poles on the contour.  DomainError for x <= 0; ContourError when the
    integrand fails its decay estimate at the truncation height.
    """
    if x <= 0.0:
        raise DomainError("W_n is evaluated on x > 0")
    a, b = params.alpha, params.beta
    h = 0.05 / a
    B = 2.0 * 18.0 * math.log(10.0) / (a * math.pi)
    for _ in range(4):
        B = 2.0 * (18.0 * math.log(10.0) + 6.0 + n * math.log(max(B, 3.0))) / (a * math.pi)
    t = np.arange(0.0, B, h)
    s = max(1.0, 1.5 - b - 1.0 / a) + 1j * t
    lv = -s * math.log(x) + sp_cloggamma(a * s - a + a * b + 1.0)
    with np.errstate(divide="ignore"):
        for j in range(1, n + 1):
            lv = lv + np.log(s - j)
    vals = np.exp(lv)
    peak = float(np.max(np.abs(vals)))
    if abs(vals[-1]) > 1e-12 * peak:
        raise ContourError("Mellin contour integrand not decayed at height B")
    vals[0] *= 0.5
    integral = 2.0 * float(np.sum(vals.real)) * h
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
    q = operator.index(q)
    if q < 0:
        raise DomainError("derivative order must be >= 0")
    if isinstance(x, np.ndarray) and x.ndim >= 1:
        raise DomainError("w_eval takes one point x, not an array")
    return _w_value(*_w_horner(params, operator.index(n), q, x, log=True), q * math.log(x),
                    log_weight_eval(params, x))


def _w_value(sign: float, lr: float, log_x: float, log_e: float) -> float:
    """W_n^(q)(x) = sign exp(lr - log_x + log_e), +-inf past the double range,
    from the log form (sign, lr) of its sum, log_x = q log x and log_e =
    log e(x), by ``math.exp``, for w_eval and _WBasis."""
    lw = lr - log_x + log_e
    return sign * math.inf if lw > LOG_DOUBLE_MAX else math.copysign(math.exp(lw), sign)


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
