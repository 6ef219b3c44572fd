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

The float64 table comes from log-gammas (``p_coeffs``), the other faces of
the "P" table from one row of the gamma ratios g_k, integer mantissas at
one power-of-two scale (``_row``): the double-double g_k are its correct
rounding, the exact tier's numerators (-1)^k C(n, k) times its mantissas.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

import mpmath as mp
import numpy as np
from scipy.special import cython_special, eval_genlaguerre, gammaln

from .core import (ConvergenceError, DomainError, GLParams, RealFn, coeff_faces,
                   make_params, mp_ctx)
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
    params (the "coeff" face of its "P" table), grown by the rows of the
    new orders for a larger N (the held rows are 0 past their order).  Each
    entry is formed on its own, so it is the same at any table size."""
    N = operator.index(N)
    if N < 0:
        raise DomainError("degree must be >= 0")
    faces = coeff_faces("P", params)
    seq = faces.get("coeff")
    if seq is None or seq.degree < N:
        a, b = params.alpha, params.beta
        n0 = 0 if seq is None else seq.degree + 1
        n, k = np.arange(n0, N + 1.0)[:, None], np.arange(N + 1.0)
        lbin = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(np.abs(n - k) + 1.0)
        new = np.where(k <= n, gammaln(a * b + 1.0) + lbin - gammaln(a * k + a * b + 1.0),
                       -np.inf)
        logmag, coeff = np.full((N + 1, N + 1), -np.inf), np.zeros((N + 1, N + 1))
        logmag[n0:] = new
        coeff[n0:] = np.where(np.isfinite(new), (1.0 - 2.0 * (k % 2)) * np.exp(new), 0.0)
        if seq is not None:
            logmag[:n0, :n0], coeff[:n0, :n0] = seq.logmag, seq.coeff
        logmag.flags.writeable = coeff.flags.writeable = False
        faces["coeff"] = seq = PolySeq(params, N, logmag, coeff)
    if seq.degree == N:
        return seq
    return PolySeq(params, N, seq.logmag[:N + 1, :N + 1], seq.coeff[:N + 1, :N + 1])


def _g(params: GLParams, ks) -> list:
    """g_k = Gamma(ab + 1) / Gamma(alpha k + ab + 1), k in ks, as mpmath
    (mantissa, exponent) pairs at the current working precision (g_0 = 1),
    each gamma at its exact dyadic argument alpha k + ab + 1 = (A Db k +
    A B + L) / L, where alpha = A / Da, beta = B / Db and L = Da Db.
    Gamma(ab + 1) is taken once per working precision, held with it as
    face "G0" of the "P" table."""
    (A, Da), (B, Db) = params.alpha.as_integer_ratio(), params.beta.as_integer_ratio()
    L = Da * Db

    def gamma(X):
        return mp.gamma(mp.make_mpf(mp.libmp.from_man_exp(X, 1 - L.bit_length())))
    faces = coeff_faces("P", params)
    prec, g0 = faces.get("G0", (0, None))
    if prec != mp.mp.prec:
        prec, g0 = mp.mp.prec, gamma(A * B + L)
        faces["G0"] = prec, g0
    return [(g0 / gamma(A * Db * k + A * B + L)).man_exp if k else (1, 0) for k in ks]


def _row(params: GLParams, n: int, bits: int = 0) -> tuple:
    """(mants, e, dps, c_bits): g_k = mants[k] / 2^e, k = 0..(at least) n,
    by ``_g`` at dps digits, so known to a relative 2^-c_bits (4 bits less,
    for two gammas and their ratio), c_bits >= bits.  Face "G" of the "P"
    table, grown in k; first formed at 48 digits (the exact tier's first
    pass to cond 1e25), again from k = 0 only for a caller asking more."""
    faces = coeff_faces("P", params)
    mants, e, dps, c_bits = faces.get("G", ([], 0, 0, -1))
    if c_bits < bits:
        dps = max(48, -(-(mp.libmp.prec_to_dps(bits) + 2) // 16) * 16)
        mants, e, c_bits = [], 0, mp.libmp.dps_to_prec(dps) - 4
    if len(mants) <= n:
        with mp_ctx(dps):
            mt = _g(params, range(len(mants), n + 1))
        top = max(e, *(-t for _, t in mt))
        mants, e = [m << top - e for m in mants] + [m << t + top for m, t in mt], top
        faces["G"] = mants, e, dps, c_bits
    return mants, e, dps, c_bits


def _binomials(params: GLParams, n: int) -> list:
    """The exact integers (-1)^k C(n, k), k = 0..n, by the multiplicative
    recurrence, held as face ("C", n) of the "P" table."""
    faces = coeff_faces("P", params)
    if ("C", n) not in faces:
        faces["C", n] = list(accumulate(range(n, 0, -1), lambda c, m: -c * m // (n + 1 - m),
                                        initial=1))
    return faces["C", n]


def _exact(params: GLParams, n: int, bits: int) -> tuple:
    """(nums, den, c_bits): the coefficients of P_n as nums[k] / den, den =
    2^e, the exact (-1)^k C(n, k) times the mantissas of ``_row`` at the
    least scale that holds g_0..g_n, known to 2^-c_bits, c_bits >= bits:
    face ("N", n, dps) of the table, dps the row's digits."""
    mants, e, dps, c_bits = _row(params, n, bits)
    faces = coeff_faces("P", params)
    if ("N", n, dps) not in faces:
        d = min(e, *((m & -m).bit_length() - 1 for m in mants[:n + 1]))
        faces["N", n, dps] = ([c * (m >> d) for c, m in zip(_binomials(params, n), mants)],
                              1 << e - d, c_bits)
    return faces["N", n, dps]


def _exact_args(params: GLParams, n: int, x: float, bits: int) -> tuple:
    """P_n at x for the exact tier of the escalating Horner: the row of
    ``_exact``, x exact."""
    return (*_exact(params, n, bits), *x.as_integer_ratio(), None)


def _dd_args(params: GLParams, orders: list, x: float) -> tuple:
    """P_n, n in orders (increasing), at x for the double-double tier: x
    exact, and read-only double-double rows (hi, lo), each the exact
    (-1)^k C(n, k) times face "g", held as face n.  Face "g" rounds the row
    of ``_row`` correctly, hi = fl(g_k) and lo = fl(g_k - hi) (``_dd_ratio``).
    Rows not held are formed as one block by one ``_dd_mul``, which gives
    each row the bits of a block of one.  A binomial past 2^1023 (n >=
    1029) makes the value NaN."""
    faces = coeff_faces("P", params)
    new = [n for n in orders if n not in faces]
    if new:
        top = new[-1]
        g = faces.get("g", (np.zeros(0), np.zeros(0)))
        if g[0].size <= top:
            mants, e, *_ = _row(params, top)
            more = _dd_ratio(mants[g[0].size:top + 1], 1 << e)
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
    ``eval_genlaguerre``) at every point of an ndarray x, or at a float x by
    its ``cython_special`` form, the same function without the ufunc's cost
    per call; d/dx L_n^(b) = -L_{n-1}^(b+1) gives the derivatives (0 past
    order n, where the order is negative)."""
    if isinstance(x, np.ndarray):
        return (-1.0) ** derivative * eval_genlaguerre(n - derivative, beta + derivative, x)
    return (-1.0) ** derivative * cython_special.eval_genlaguerre(
        operator.index(n) - derivative, beta + derivative, float(x))


@lru_cache(maxsize=64)
def _shifted(params: GLParams, p: int) -> GLParams:
    """The (beta + p) parameters of the index-shift identity for P_n^(p)."""
    return make_params(params.alpha, params.beta + p, params.precision, params.eps)


def _p_fac(params: GLParams, n: int, p: int) -> float:
    """(-1)^p n! / (n - p)! Gamma(ab + 1) / Gamma(ab + ap + 1): P_n^(p) over
    P_(n-p) of the (beta + p) family, by ``math.exp``, for ``p_eval`` and
    ``_PBasis`` alike."""
    a, b = params.alpha, params.beta
    return (-1.0) ** p * math.exp(gammaln(n + 1.0) - gammaln(n - p + 1.0)
                                  + gammaln(a * b + 1.0) - gammaln(a * b + a * p + 1.0))


@lru_cache(maxsize=4096)
def _l_scale(n: int, beta: float) -> float:
    """n! Gamma(beta + 1) / Gamma(n + beta + 1), which scales L_n^(beta) to
    P_n at alpha = 1 (constant term 1), by ``math.exp``."""
    return math.exp(gammaln(n + 1.0) + gammaln(beta + 1.0) - gammaln(n + beta + 1.0))


def p_eval(seq: PolySeq, n: int, x, p: int = 0):
    """p-th derivative of P_n at a float x, or at every point of an ndarray
    x (the result then has x's shape).

    Derivatives reduce to the (beta + p) family through the index-shift
    identity, so only plain evaluations remain.
    """
    n = operator.index(n)
    if not 0 <= n <= seq.degree:
        raise DomainError(f"n = {n} is not an order of the table, 0..{seq.degree}")
    if p < 0:
        raise DomainError("derivative order must be >= 0")
    params = seq.params
    if p > 0:
        if p > n:
            return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
        return _p_fac(params, n, p) * p_eval(p_coeffs(_shifted(params, p), n - p), n - p, x, 0)
    if params.is_classical:
        if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
            raise DomainError(f"P_n is evaluated at finite x, got {x}")
        return _l_scale(n, params.beta) * laguerre_eval(n, params.beta, x)
    return _escalating_horner(seq.coeff[n, :n + 1], x, params, n, x,
                              partial(_dd_args, params), partial(_exact_args, params))


class _PBasis:
    """P_n^(p)(x) at one x for the orders n >= p of a kernel sum: ``value(n)``
    reads the sum of P_(n-p) of the (beta + p) family from ``basis``, whose
    chunks of rows, read from ``p_coeffs`` up to the chunk's last order,
    the caller loads (``specfun._basis_values``), and applies the factor of
    ``_p_fac``, as ``p_eval`` does, so each value has ``p_eval``'s bits.
    On the classical branch (``basis`` None) each value is ``p_eval``'s
    scaled ``eval_genlaguerre`` call."""

    def __init__(self, params: GLParams, x: float, p: int = 0):
        if not math.isfinite(x):
            raise DomainError(f"P_n is evaluated at finite x, got {x}")
        self.p, self.x, self.base, self.params = p, x, params, _shifted(params, p) if p else params
        self.basis = None
        if not params.is_classical:
            sp = self.params
            self.basis = _Basis(sp, x, x, lambda lo, hi: p_coeffs(sp, hi).coeff[lo:hi + 1],
                                partial(_dd_args, sp), partial(_exact_args, sp))

    def value(self, n: int) -> float:
        m = n - self.p
        if self.basis is None:
            b = self.params.beta
            v = _l_scale(m, b) * laguerre_eval(m, b, self.x)
        else:
            v = self.basis.sum(m)
        return _p_fac(self.base, n, self.p) * v if self.p else v


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
