"""Eigenpolynomial family P_n: coefficients, stable evaluation, derivatives,
and generating-function checks.

    P_n(x) = Gamma(a b + 1) * sum_k (-1)^k C(n,k) x^k / Gamma(a k + a b + 1)

P_0 = 1, P_n(0) = 1, the coefficients alternate in sign, and the family is
not orthogonal for alpha < 1, so there is no three-term recurrence: monomial
coefficients with Horner are the only evaluation route, falling back, when
the Horner condition number explodes, to the double-double and exact tiers
of ``specfun._Tiers``, from the inputs of ``_dd_args`` and ``_exact_args``,
the same for ``p_eval`` and the kernel sums' ``_PBasis``.  At alpha = 1
evaluation dispatches to the classical Laguerre polynomial
(``laguerre_eval``, scipy's ``eval_genlaguerre``), rescaled so the constant
term is 1.

The float64 table comes from log-gammas (``p_coeffs``).  The "P" table of
``core.coeff_table``, the package's one coefficient cache, holds the gamma
ratios g_k in mpmath, from which the mpmath and exact rows are formed on
demand; the float64 table, the signed binomials (-1)^k C(n, k), the
double-double rows of the escalating Horner and the integer numerators of
its exact tier are faces of that table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

import mpmath as mp
import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .core import (TABLE_MIN_DPS, ConvergenceError, DomainError, GLParams,
                   RealFn, coeff_faces, coeff_table, make_params, mp_ctx)
from .specfun import _Basis, _dd_mul, _dd_ratio, _escalating_horner, cal_I

__all__ = ["PolySeq", "p_coeffs", "p_eval", "p_fn", "jensen_check",
           "p_growth_bound_check", "laguerre_eval", "p_sup"]


@dataclass(frozen=True)
class PolySeq:
    """Coefficient table c_{n,k} of P_0 .. P_N as log-magnitudes and rounded
    floats (c_{n,k} alternates in sign as (-1)^k)."""

    params: GLParams
    degree: int
    logmag: np.ndarray    # (N+1, N+1) float64, -inf where zero
    coeff: np.ndarray     # (N+1, N+1) float64 (rounded)


@lru_cache(maxsize=64)
def p_coeffs(params: GLParams, N: int) -> PolySeq:
    """Coefficients of P_0 .. P_N in the monomial basis, from log-gammas in
    float64: the leading (N+1) x (N+1) block, read-only, of one table per
    params (the "coeff" face of its "P" table), rebuilt only for a larger
    N.  Each entry is formed on its own, so it is the same at any table
    size."""
    N = operator.index(N)
    if N < 0:
        raise DomainError("degree must be >= 0")
    faces = coeff_faces("P", params)
    seq = faces.get("coeff")
    if seq is None or seq.degree < N:
        a, b = params.alpha, params.beta
        n, k = np.arange(N + 1.0)[:, None], np.arange(N + 1.0)
        lbin = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(np.abs(n - k) + 1.0)
        logmag = np.where(k <= n, gammaln(a * b + 1.0) + lbin - gammaln(a * k + a * b + 1.0),
                          -np.inf)
        coeff = np.where(np.isfinite(logmag), (1.0 - 2.0 * (k % 2)) * np.exp(logmag), 0.0)
        logmag.flags.writeable = coeff.flags.writeable = False
        faces["coeff"] = seq = PolySeq(params, N, logmag, coeff)
    if seq.degree == N:
        return seq
    return PolySeq(params, N, seq.logmag[:N + 1, :N + 1], seq.coeff[:N + 1, :N + 1])


def _g(params: GLParams, ks) -> list:
    """g_k = Gamma(ab + 1) / Gamma(alpha k + ab + 1) for k in ks, at the
    current working precision (g_0 = 1); c_{m,k} = (-1)^k C(m, k) g_k."""
    am = mp.mpf(params.alpha)
    ab = am * mp.mpf(params.beta)
    g0 = mp.gamma(ab + 1)
    return [g0 / mp.gamma(am * k + ab + 1) if k else mp.mpf(1) for k in ks]


def _extend(rows: list, params: GLParams, n: int) -> None:
    """Append g_k for k = len(rows)..n to the "P" table, at the current
    working precision: the table holds only the gamma ratios, and row m of
    the coefficients is formed from them (``_coeffs_mp``)."""
    rows += _g(params, range(len(rows), n + 1))


def _binomials(params: GLParams, n: int) -> list:
    """The exact integers (-1)^k C(n, k), k = 0..n, by the multiplicative
    recurrence, held as face ("C", n) of the "P" table."""
    faces = coeff_faces("P", params)
    if ("C", n) not in faces:
        faces["C", n] = list(accumulate(range(n, 0, -1), lambda c, m: -c * m // (n + 1 - m),
                                        initial=1))
    return faces["C", n]


def _coeffs_mp(params: GLParams, n: int) -> list:
    """Coefficients of P_n as mpmath numbers with at least the current
    working precision: the exact (-1)^k C(n, k) times g_k of the params'
    "P" table, at the table's digits, one rounding at any n."""
    table = coeff_table("P", _extend, params, n, mp.mp.dps)
    with mp_ctx(table.dps):
        return [g * c for g, c in zip(table.rows[:n + 1], _binomials(params, n))]


def _exact(params: GLParams, n: int, bits: int) -> tuple:
    """(nums, den, c_bits): the coefficients of P_n as nums[k] / den, den =
    2^e, the exact (-1)^k C(n, k) times g_k of the "P" table at digits
    enough for ``bits``, known to a relative 2^-c_bits, its precision less 4
    bits.  Held as face ("N", n) of the table with the digits they were
    formed at, and formed again only once the table holds more."""
    table = coeff_table("P", _extend, params, n, mp.libmp.prec_to_dps(bits) + 2)
    held = table.get(("N", n))
    if held is None or held[0] != table.dps:
        mx = [g.man_exp for g in table.rows[:n + 1]]
        e = max(0, *(-t for _, t in mx))
        nums = [c * (m << (t + e)) for c, (m, t) in zip(_binomials(params, n), mx)]
        table["N", n] = held = table.dps, (nums, 1 << e, mp.libmp.dps_to_prec(table.dps) - 4)
    return held[1]


def _exact_args(params: GLParams, n: int, x: float, bits: int) -> tuple:
    """P_n at x for the exact tier of the escalating Horner: the row of
    ``_exact``, x exact."""
    return (*_exact(params, n, bits), *x.as_integer_ratio(), None)


def _dd_args(params: GLParams, orders: list, x: float) -> tuple:
    """P_n, n in orders (increasing), at x for the double-double tier: x
    exact, and read-only double-double rows (hi, lo), each the exact
    (-1)^k C(n, k) times the double-double g_k of face "g" (``_dd_ratio``
    below its range), held as face n.  Rows not held are formed as one
    block from g_k at TABLE_MIN_DPS digits (not the table's, which are the
    exact tier's) and one ``_dd_mul``, which gives each row the bits of a
    block of one.  A binomial past 2^1023 (n >= 1029) makes the value NaN."""
    faces = coeff_faces("P", params)
    new = [n for n in orders if n not in faces]
    if new:
        top = new[-1]
        g = faces.get("g", (np.zeros(0), np.zeros(0)))
        if g[0].size <= top:
            with mp_ctx(TABLE_MIN_DPS):    # g_k = m 2^t, exactly m 2^(t + e) / 2^e
                mt = [v.man_exp for v in _g(params, range(g[0].size, top + 1))]
            e = max(0, *(-t for _, t in mt))
            more = _dd_ratio([m << (t + e) for m, t in mt], 1 << e)
            faces["g"] = g = tuple(np.concatenate(parts) for parts in zip(g, more))
        b_hi, b_lo = np.zeros((2, len(new), top + 1))
        for i, n in enumerate(new):
            b_hi[i, :n + 1], b_lo[i, :n + 1] = _dd_ratio(_binomials(params, n), 1)
        with np.errstate(over="ignore", invalid="ignore"):
            block = _dd_mul(b_hi, b_lo, g[0][:top + 1], g[1][:top + 1])
        for a in block:
            a.flags.writeable = False
        for i, n in enumerate(new):
            faces[n] = (block[0][i, :n + 1], block[1][i, :n + 1])
    return [faces[n] for n in orders], (x, 0.0)


def laguerre_eval(n: int, beta: float, x, derivative: int = 0):
    """Classical generalized Laguerre value L_n^(b)(x) (scipy's
    ``eval_genlaguerre``) at a float x or at every point of an ndarray x;
    d/dx L_n^(b) = -L_{n-1}^(b+1) gives the derivatives (0 past order n,
    where the ufunc's order is negative)."""
    v = (-1.0) ** derivative * eval_genlaguerre(n - derivative, beta + derivative, x)
    return v if isinstance(x, np.ndarray) else float(v)


@lru_cache(maxsize=64)
def _shifted(params: GLParams, p: int) -> GLParams:
    """The (beta + p) parameters of the index-shift identity for P_n^(p)."""
    return make_params(params.alpha, params.beta + p, params.precision, params.eps)


def p_eval(seq: PolySeq, n: int, x, p: int = 0):
    """p-th derivative of P_n at a float x, or at every point of an ndarray
    x (the result then has x's shape).

    Derivatives reduce to the (beta + p) family through the index-shift
    identity, so only plain evaluations remain.
    """
    n = operator.index(n)
    if n > seq.degree:
        raise DomainError(f"n = {n} exceeds table degree {seq.degree}")
    if p < 0:
        raise DomainError("derivative order must be >= 0")
    params = seq.params
    if p > 0:
        if p > n:
            return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
        a, b = params.alpha, params.beta
        fac = ((-1.0) ** p) * math.exp(
            gammaln(n + 1.0) - gammaln(n - p + 1.0)
            + gammaln(a * b + 1.0) - gammaln(a * b + a * p + 1.0))
        return fac * p_eval(p_coeffs(_shifted(params, p), n - p), n - p, x, 0)
    if params.is_classical:
        b2 = math.exp(gammaln(n + 1.0) + gammaln(params.beta + 1.0)
                      - gammaln(n + params.beta + 1.0))
        return b2 * laguerre_eval(n, params.beta, x)
    return _escalating_horner(seq.coeff[n, :n + 1], x, params, n, x,
                              partial(_dd_args, params), partial(_exact_args, params))


class _PBasis:
    """P_n^(p)(x) at one x for the orders n = p..nmax of a kernel sum, a
    chunk of orders at a time: ``values(lo, hi, s)``, NaN at the orders the
    float64 tier did not keep, and ``escalate(n)`` for such an order (see
    ``specfun._Basis``).  The derivative goes to the (beta + p) family, as
    in ``p_eval``; on the classical branch one ``eval_genlaguerre`` call
    over the chunk's orders gives every value."""

    def __init__(self, params: GLParams, x: float, nmax: int, p: int = 0):
        if not math.isfinite(x):
            raise DomainError(f"P_n is evaluated at finite x, got {x}")
        a, b = params.alpha, params.beta
        self.p, self.x, self.params = p, x, _shifted(params, p) if p else params
        self.log_fac = gammaln(a * b + 1.0) - gammaln(a * b + a * p + 1.0) if p else 0.0
        self.basis = None
        if not params.is_classical:
            seq, sp = p_coeffs(self.params, max(nmax - p, 0)), self.params
            self.basis = _Basis(sp, x, x, lambda lo, hi: seq.coeff[lo:hi + 1, :hi + 1],
                                partial(_dd_args, sp), partial(_exact_args, sp))

    def _fac(self, n):
        """(-1)^p n! / (n - p)! Gamma(ab + 1) / Gamma(ab + ap + 1), over an
        array of orders n."""
        if not self.p:
            return 1.0
        return (-1.0) ** self.p * np.exp(gammaln(n + 1.0) - gammaln(n - self.p + 1.0)
                                         + self.log_fac)

    def span(self, lo: int, hi: int) -> tuple:
        """The basis and the rows of orders lo..hi in it, for
        ``specfun._basis_values``."""
        return self.basis, lo - self.p, hi - self.p

    def values(self, lo: int, hi: int, s) -> np.ndarray:
        """P_n^(p)(x), n = lo..hi, from the basis's first tier s of
        ``span(lo, hi)``."""
        n = np.arange(float(lo), hi + 1.0)
        if self.basis is None:
            m, b = np.arange(lo - self.p, hi - self.p + 1), self.params.beta
            scale = np.exp(gammaln(m + 1.0) + gammaln(b + 1.0) - gammaln(m + b + 1.0))
            return self._fac(n) * scale * eval_genlaguerre(m, b, self.x)
        return self._fac(n) * s if self.p else s

    def escalate(self, n: int) -> float:
        return float(self._fac(np.float64(n))) * self.basis.escalate(n - self.p)


def p_fn(params: GLParams, n: int) -> RealFn:
    """P_n wrapped as a RealFn with exact derivatives and power expansion;
    the value and both derivatives take a float or an ndarray."""
    seq = p_coeffs(params, n)
    pw = tuple((float(seq.coeff[n, k]), float(k)) for k in range(n + 1))
    return RealFn(
        lambda x: p_eval(seq, n, x, 0),
        d1=lambda x: p_eval(seq, n, x, 1),
        d2=lambda x: p_eval(seq, n, x, 2),
        description=f"P_{n}",
        powers=pw,
    )


def p_sup(params: GLParams, n: int, lo: float = 0.0, hi: float = 10.0,
          grid: int = 33) -> float:
    """Grid sup of |P_n| on [lo, hi], used by truncation estimates."""
    return float(np.max(np.abs(p_eval(p_coeffs(params, n), n, np.linspace(lo, hi, grid)))))


def jensen_check(params: GLParams, x: float, t: float, N: int) -> float:
    """|exp(t) I(x t) - sum_{n<=N} P_n(-x) t^n / n!|.

    Both sides are positive-term series, so the comparison is well
    conditioned; a ConvergenceError signals that N leaves a visible tail.
    """
    if t < 0.0 or x < 0.0:
        raise DomainError("jensen_check expects x >= 0 and t >= 0")
    lhs = math.exp(t) * cal_I(params, x * t)
    seq, acc, last = p_coeffs(params, N), 0.0, 0.0
    for n in range(N + 1):
        # P_n(-x): every term of its Horner sum is positive, so it stays in float64
        last = p_eval(seq, n, -float(x)) * (math.exp(n * math.log(t) - gammaln(n + 1.0))
                                            if t > 0.0 else float(n == 0))
        acc += last
    if last > 1e-11 * max(abs(lhs), 1.0):
        raise ConvergenceError(f"jensen_check: N = {N} leaves tail term {last:.2e}")
    return abs(lhs - acc)


def p_growth_bound_check(params: GLParams, n: int, x: float, p: int = 0) -> dict:
    """Ratio |P_n^(p)(x)| / (n^{p+1/2} exp(frak_t (n|x|)^{1/(a+1)})).

    The growth bound hides an unspecified constant, so callers assert
    boundedness of the ratio along n, not a particular value.
    """
    seq = p_coeffs(params, n)
    val = p_eval(seq, n, x, p)
    a = params.alpha
    env = math.exp((p + 0.5) * math.log(n)
                   + params.frak_t * (n * abs(x)) ** (1.0 / (1.0 + a)))
    return {"n": n, "x": x, "p": p, "value": val, "envelope": env,
            "ratio": abs(val) / env}
