"""Quadrature against the invariant density, inner products, norms,
biorthogonality matrices, and Bessel-inequality checks.

Inner products against R_n take no rule: its Rodrigues form
R_n e = (x^n e)^(n) / n!, integrated by parts n times, gives <x^p, R_n> =
(-1)^n C(p, n) M_e(p), which ``semigroup.expand`` sums in float64 and
``r_norm`` over R_n's exact row in Python integers.  ``gram_biorth`` sums
<P_n, R_m> by ``_moment_form``, against exact moments the tables did not
make.  The auxiliary norm of R_n, against a growing weight, is a float64
double-exponential rule.  The Gauss rules of ``build_rule`` integrate
general f against the invariant density: at alpha = 1 the generalized
Gauss-Laguerre rule; for rational alpha = p/q, v = x**(1/p) turns it into
p v**(p b + q - 1) exp(-v**q), whose Gauss rule (Stieltjes recurrence,
Golub-Welsch nodes, Christoffel weights) is checked against its exact
moments of degree 0..2m-1; irrational alpha falls back to the u =
x**(1/alpha) generalized Gauss-Laguerre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, roots_legendre

from .core import (LOG_DOUBLE_MAX, DomainError, GLParams, QuadratureError, eval_on,
                   make_params)
from .eigen import _exact as _exact_p
from .eigen import p_coeffs, p_eval
from .coeigen import _dyadic, _exact, _w_coeffs, r_coeffs
from .specfun import _div, _escalating_horner

__all__ = ["QuadRule", "build_rule", "integrate", "inner", "inner_with_error",
           "gram_biorth", "bessel_check", "r_norm"]

_MAX_ORDER = 500


@dataclass(frozen=True)
class QuadRule:
    """Order-m Gauss rule for integration of f against the invariant density
    of params on (0, inf): ``nodes`` in x-space, ``weights`` summing to its
    unit mass."""

    params: GLParams
    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _rational_alpha(alpha: float):
    fr = Fraction(alpha).limit_denominator(64)
    if abs(float(fr) - alpha) < 1e-12 and fr.denominator <= 64:
        return fr.numerator, fr.denominator
    return None


def _christoffel_weights(x: np.ndarray, diag: np.ndarray, off: np.ndarray,
                         p0: float) -> np.ndarray:
    """Gauss weights w_i = 1 / sum_{k<m} p_k(x_i)^2 (Christoffel numbers).

    p_k are the orthonormal polynomials of the Jacobi matrix (diag, off),
    off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1}, started at p_0 = p0.
    Unlike squared eigenvector components, which carry an absolute error of
    about machine epsilon, these keep their relative accuracy at the far
    nodes.  The running values carry a per-node power-of-two scale, so the
    sum cannot overflow; weights below the double range come out 0.
    """
    pkm1 = np.zeros_like(x)
    pk = np.full_like(x, p0)
    s = pk * pk
    e2 = np.zeros(x.shape, dtype=int)      # p_k = pk * 2**e2 (per node)
    for k in range(len(diag) - 1):
        pk1 = (x - diag[k]) * pk
        if k > 0:
            pk1 -= off[k - 1] * pkm1
        pkm1, pk = pk, pk1 / off[k]
        e = np.frexp(pk)[1]
        big = e > 256
        if big.any():
            sh = np.where(big, -e, 0)
            pk, pkm1 = np.ldexp(pk, sh), np.ldexp(pkm1, sh)
            s = np.ldexp(s, 2 * sh)
            e2 -= sh
        s += pk * pk
    return np.ldexp(1.0 / s, -2 * e2)


def _classical_laguerre_rule(b: float, m: int):
    """Gauss rule for u^b e^(-u): nodes by Golub-Welsch from the generalized
    Laguerre Jacobi matrix, weights as Christoffel numbers from its
    recurrence.  Weights are relative (total mass folded in later)."""
    k = np.arange(m, dtype=float)
    diag = 2.0 * k + b + 1.0
    off = np.sqrt(k[1:] * (k[1:] + b))
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return vals, _christoffel_weights(vals, diag, off, 1.0)


def _stieltjes_rule(p: int, q: int, beta: float, m: int, refine: int = 1):
    """Gauss rule for the weight p v^(p beta + q - 1) exp(-v^q) on (0, inf).

    Discretized Stieltjes on a composite Legendre grid gives the recurrence;
    it carries sqrt(weight) * p_k, which stays bounded where p_k alone would
    overflow.  Nodes by Golub-Welsch, weights as Christoffel numbers from the
    recurrence.  QuadratureError when the recurrence breaks down.
    """
    theta = p * beta + q - 1.0
    V = 720.0 ** (1.0 / q)
    deg = 48 * refine
    npanel = 60 * refine
    xl, wl = roots_legendre(deg)
    edges = np.concatenate([[0.0], np.geomspace(V * 1e-4, V, npanel)])
    nodes, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (hi - lo) * xl + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wl)
    nodes = np.concatenate(nodes)
    wts = np.concatenate(wts) * p * np.power(nodes, theta) * np.exp(-np.power(nodes, q))
    mu0 = float(wts.sum())
    ak = np.zeros(m)
    sb = np.zeros(m)
    qkm1 = np.zeros_like(nodes)
    qk = np.sqrt(wts / mu0)                 # sqrt(weight) * p_k on the grid
    for k in range(m):
        # np.sum rather than a BLAS dot: threaded dots stall on a busy host
        ak[k] = float(np.sum(nodes * qk * qk))
        if k + 1 == m:
            break
        r = (nodes - ak[k]) * qk - sb[k] * qkm1
        nr = math.sqrt(float(np.sum(r * r)))
        if not (nr > 0.0 and math.isfinite(nr)):
            raise QuadratureError(f"Stieltjes recurrence broke down at degree {k + 1}")
        sb[k + 1] = nr
        qkm1, qk = qk, r / nr
    vals = eigh_tridiagonal(ak, sb[1:], eigvals_only=True)
    return vals, _christoffel_weights(vals, ak, sb[1:], 1.0 / math.sqrt(mu0)), mu0


def _check_v_moments(vn, wn, p, q, beta, m) -> float:
    """Worst relative error of the rule's v-moments of degree 0..2m-1, all of
    which a Gauss rule integrates exactly; summed in log form, so v^r
    cannot overflow."""
    r = np.arange(2 * m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = np.log(wn)
        lv = np.log(vn)
    got = _log_sum_exp(lw[None, :] + r[:, None] * lv[None, :], axis=1)
    exact = math.log(p / q) + gammaln((p * beta + q + r) / q)
    err = np.abs(np.expm1(got - exact))
    return float(err.max()) if np.all(np.isfinite(err)) else math.inf


@lru_cache(maxsize=32)
def build_rule(params: GLParams, m: int) -> QuadRule:
    """Gauss rule of order m for the invariant density of params, and only
    that rule.  DomainError for m outside [1, 500]."""
    if not (1 <= m <= _MAX_ORDER):
        raise DomainError(f"order must lie in [1, {_MAX_ORDER}]")
    a, b = params.alpha, params.beta
    if a == 1.0:
        un, uw = _classical_laguerre_rule(b, m)
        return QuadRule(params, un, uw / uw.sum(), m)
    pq = _rational_alpha(a)
    if pq is not None:
        p, q = pq
        for refine in (1, 2, 4):
            vn, wn, mu0 = _stieltjes_rule(p, q, b, m, refine)
            if _check_v_moments(vn, wn, p, q, b, m) < 1e-11:
                break
        else:
            raise QuadratureError("Stieltjes recurrence failed its moment check")
        return QuadRule(params, np.power(vn, p), wn / mu0, m)
    # irrational alpha: u-substitution generalized Gauss-Laguerre
    un, uw = _classical_laguerre_rule(a * b, m)
    return QuadRule(params, np.power(un, a), uw / uw.sum(), m)


def integrate(rule: QuadRule, f) -> float:
    """Integral of f against the rule's weight (mass-normalized); f is called
    on the node array, or node by node where that fails (``core.eval_on``)."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = float(rule.weights @ eval_on(f, rule.nodes))
    if not math.isfinite(out):
        raise QuadratureError(f"rule sum is {out}: the integrand overflows at "
                              "the rule's far nodes")
    return out


def _product(f, g):
    return lambda x: np.asarray(f(x)) * np.asarray(g(x))


def inner_with_error(rule: QuadRule, f, g):
    """Inner product <f, g> and its error estimate |full - coarse|, coarse
    by the order-m/2 rule of ``build_rule`` (inf at m = 1)."""
    fg = _product(f, g)
    full = integrate(rule, fg)
    if rule.order < 2:
        return full, math.inf
    return full, abs(full - integrate(build_rule(rule.params, rule.order // 2), fg))


def inner(rule: QuadRule, f, g, rtol: Optional[float] = None) -> float:
    """Inner product; with rtol, QuadratureError when the two-order estimate
    of ``inner_with_error`` disagrees beyond it (relative, with an absolute
    floor)."""
    if rtol is None:
        return integrate(rule, _product(f, g))
    val, err = inner_with_error(rule, f, g)
    if err > rtol * max(1.0, abs(val)):
        raise QuadratureError(
            f"quadrature estimate unstable: value {val:.6e}, "
            f"order-m vs m/2 discrepancy {err:.2e}")
    return val


# --------------------------------------------------------------------------
# Exact bilinear forms for generalized polynomials
# --------------------------------------------------------------------------

#: bits the moment form carries past its error budget, and the moment rows
#: past the form's bits
_GUARD_BITS = 16


def _moment_form(params: GLParams, la, s, lb, t, rows) -> np.ndarray:
    """F = A M B^T: F_nm = <f_n, g_m> for f_n = sum_k a_nk x^(s_k/alpha) and
    g_m = sum_j b_mj x^(t_j/alpha), M_kj = Gamma(s_k + t_j + ab + 1) /
    Gamma(ab + 1) the exact moments, summed exactly in Python integers.

    la, lb = log|a|, log|b| (-inf at 0) and s, t in float64 give S =
    max_nm sum_kj |a_nk| M_kj |b_mj|, and with it the digits that keep each
    entry right to about 1e-20 however far its terms cancel: max(precision
    dps, 20 + log10 S).  Column k of A and column j of B are scaled by
    powers of two to magnitude about 1, M by the inverse ones, and every
    entry of the three is rounded once to an integer at scale 2^-bits: bits
    are those digits, the bits S lies below 1, and enough for the
    2 (n_A + n_B) S + K J units of 2^-bits the roundings can move F by.
    The products are added exactly, so the rounding of the inputs is the
    only error (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005), and
    each entry of F is one correctly rounded division.

    rows(prec) gives (A, M, B): A and B as exact rows (nums, den), nums[k]
    / den, and M as rows of (mantissa, exponent) pairs known to a relative
    2^-prec, prec = bits + _GUARD_BITS.  Rows may stop short of K or J; the
    rest is 0.
    """
    ab = params.alpha * params.beta
    lM = gammaln(np.add.outer(s, t) + ab + 1.0) - gammaln(ab + 1.0)
    with np.errstate(divide="ignore"):
        lam = _log_sum_exp(la[:, :, None] + lM, axis=1)
        lS = float(np.max(_log_sum_exp(lam[:, None, :] + lb, axis=2)))
    if lS == -math.inf:
        return np.zeros((len(la), len(lb)))
    dps = max(params.precision.dps, 20 + math.ceil(lS / math.log(10.0)))
    moves = 2 * (len(la) + len(lb)) + lM.size + 1
    bits = (mp.libmp.dps_to_prec(dps) + max(0, math.ceil(-lS / math.log(2.0)))
            + moves.bit_length() + _GUARD_BITS)
    ea, eb = ([int(math.ceil(c / math.log(2.0))) if c > -math.inf else 0
               for c in x.max(axis=0).tolist()] for x in (la, lb))
    A, M, B = rows(bits + _GUARD_BITS)
    Ai = [[_fix(c, den, bits - e) for c, e in zip(nums, ea)] for nums, den in A]
    Bi = [[_fix(c, den, bits - e) for c, e in zip(nums, eb)] for nums, den in B]
    Mi = [[_fix(m, 1, x + bits + e + f) for (m, x), f in zip(row, eb)]
          for row, e in zip(M, ea)]
    BM = [[sum(map(mul, mk, bm)) for mk in Mi] for bm in Bi]
    scale = 1 << 3 * bits
    return np.array([[_div(sum(map(mul, an, c)), scale) for c in BM] for an in Ai])


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(x) along axis, each term shifted by the largest (by 0
    where that is not finite, so all -inf gives -inf)."""
    m = np.max(x, axis=axis, keepdims=True, initial=-math.inf)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.sum(np.exp(x - m), axis=axis)) + np.squeeze(m, axis=axis)


def _fix(num: int, den: int, e: int) -> int:
    """num 2^e / den (den > 0) rounded to the nearest integer."""
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    return (2 * num + den) // (2 * den)


def _rising(rho, X: int, lg: int, count: int, prec: int) -> list:
    """rho (x)_j for j < count, x = X / 2^lg > 0 and rho an mpf known to
    2^-prec, as (mantissa, exponent) pairs at rho's exponent.  Each step is
    one exact product and one truncating shift; the mantissas start with
    the log2(count / min(x, 1)) bits those shifts can cost past prec."""
    m, e = rho.man_exp
    sh = max(0, prec + count.bit_length() + ((1 << lg) // X).bit_length() - m.bit_length())
    m, e = m << sh, e - sh
    out = [(m, e)]
    for j in range(count - 1):
        m = m * (X + (j << lg)) >> lg
        out.append((m, e))
    return out


def gram_biorth(params: GLParams, N: int) -> np.ndarray:
    """Matrix G_{nm} = <P_n, R_m> for n, m <= N; identity when everything
    works.  The ``_moment_form`` with rows P_n (s_k = alpha k) and R_m
    (t_j = j) at every precision: P_n exact from the g_k of the "P" table,
    R_m the exact rows of the "R" table, and M_kj = Gamma(x_k) (x_k)_j /
    Gamma(ab + 1), x_k = alpha k + ab + 1, from N + 1 fresh gammas and a
    rising-factorial recurrence, so that G compares the table's g_k with
    gammas it did not make."""
    if N < 0:
        raise DomainError("N must be >= 0")
    ns = range(N + 1)
    An, Bn, L, Db = _dyadic(params)
    lg = L.bit_length() - 1
    xs = [An * Db * k + An * Bn + L for k in ns]      # x_k = xs[k] / 2^lg exactly

    def rows(prec):
        # row N first: the "P" table is then extended once, not once per order
        P = [_exact_p(params, n, prec)[:2] for n in ns[::-1]][::-1]
        with mp.workprec(prec):
            g = [mp.gamma(mp.make_mpf(mp.libmp.from_man_exp(X, -lg))) for X in xs]
            M = [_rising(gk / g[0], X, lg, N + 1, prec) for gk, X in zip(g, xs)]
        return P, M, [_exact(params, m) for m in ns]
    with np.errstate(divide="ignore"):      # R_N first: so is the "R" table
        lb = np.log(np.abs([np.pad(r_coeffs(params, m), (0, N - m)) for m in ns[::-1]][::-1]))
    return _moment_form(params, p_coeffs(params, N).logmag, params.alpha * np.arange(N + 1),
                        lb, np.arange(N + 1.0), rows)


@dataclass
class BesselReport:
    partial_sums: np.ndarray
    norm2: float

    @property
    def ok(self) -> bool:
        return bool(self.partial_sums[-1] <= self.norm2 * (1.0 + 1e-8))


def bessel_check(params: GLParams, f, N: int, rule: Optional[QuadRule] = None) -> BesselReport:
    """Partial sums of sum_n <f, P_n>^2 against ||f||^2.

    The analysis coefficients of any square-integrable f are l2-bounded by
    the norm; the report carries the monotone partial sums.
    """
    if rule is None:
        rule = build_rule(params, max(120, 2 * N + 30))
    norm2 = inner(rule, f, f)
    seq = p_coeffs(params, N)
    coefs = []
    for n in range(N + 1):
        coefs.append(inner(rule, f, lambda x, n=n: p_eval(seq, n, x)) ** 2)
    return BesselReport(np.cumsum(coefs), norm2)


#: step h of the auxiliary norm's double-exponential rule; the rule of step
#: 2h on every other node is its error estimate
_AUX_STEP = 1.0 / 64.0

#: relative agreement of the step-h and step-2h rules the auxiliary norm
#: must reach, or QuadratureError
_AUX_RTOL = 1e-10

#: condition number up to which the auxiliary norm sums R_n in float64: its
#: rounding, about 1e-16 times this per node, stays well below _AUX_RTOL
_AUX_COND = 1e5


def _log_aux_norm2(params: GLParams, n: int, gamma_: float, eta_bar: float) -> float:
    """log ||R_n e/ebar||^2.  The norm is Int R_n(x)^2 e(x)^2 / ebar(x) dx,
    that is, with x = u**alpha and R_n(u**alpha) = sum_j c_j u^j,

        (1 / (alpha Gamma(ab+1)^2)) Int_0^inf R_n(u^alpha)^2 u^(ab)
                                      e^(-2u - eta_bar u^(alpha/gamma)) du,

    by the double-exponential rule of Takahasi & Mori (1974) for integrands
    that decay exponentially: u = exp(t - e^-t), step h in t.  The nodes
    run from u^(ab+1) = e^-50 to e (4n + 60), past which u^(2n) e^(-2u)
    is negligible.  R_n goes through the escalating Horner on all nodes at
    once, at double precision whatever params.precision is, the rest of the
    integrand is summed in log form.
    """
    a, ab, h = params.alpha, params.alpha * params.beta, _AUX_STEP
    lo = -math.log(50.0 / (ab + 1.0) + 1.0)
    hi = math.log(4.0 * n + 60.0) + 1.0
    k = np.arange(2 * math.floor(lo / (2.0 * h)), math.ceil(hi / h) + 1)
    t = k * h
    lu = t - np.exp(-t)
    u = np.exp(lu)
    _, lr = _escalating_horner(r_coeffs(params, n), u, make_params(a, params.beta), n, u,
                               lambda ns, v: ([_w_coeffs(params, m, 0) for m in ns], (v, 0.0)),
                               lambda m, v, bits: (*_exact(params, m), None,
                                                   *v.as_integer_ratio(), None),
                               log=True, cond_max=_AUX_COND)
    with np.errstate(over="ignore"):
        lf = (2.0 * lr + (ab + 1.0) * lu + np.log1p(np.exp(-t)) - 2.0 * u
              - eta_bar * np.exp(lu * (a / gamma_)))
    top = float(lf.max())
    f = np.exp(lf - top)
    full, coarse = h * float(f.sum()), 2.0 * h * float(f[k % 2 == 0].sum())
    if not abs(full - coarse) <= _AUX_RTOL * full:
        raise QuadratureError(f"auxiliary norm of R_{n}: step-h and step-2h rules "
                              f"differ by {abs(full - coarse) / full:.2e} relative")
    return top + math.log(full) - math.log(a) - 2.0 * gammaln(ab + 1.0)


def r_norm(params: GLParams, n: int, gamma_: Optional[float] = None,
           eta_bar: float = 1.0) -> tuple:
    """(||R_n|| in the invariant-density space, ||R_n e/ebar|| in the
    auxiliary space), ebar(x) = x^(beta + 1/alpha - 1) e^(eta_bar x^(1/gamma)).

    The first norm is exact: the Rodrigues identity <x^p, R_n> = (-1)^n
    C(p, n) M_e(p) over R_n's row c_j gives ||R_n||^2 = (-1)^n sum_j c_j
    C(j/alpha, n) (ab + 1)_j.  With alpha = A/Da and ab + 1 = (AB + L)/L
    (``coeigen._dyadic``) that is one integer over den A^n n! L^n, den the
    row's, and one correctly rounded division.  The second is the float64
    double-exponential rule of ``_log_aux_norm2`` in u = x**(1/alpha),
    where R_n is the polynomial sum_j c_j u^j; it raises QuadratureError
    when its step-h and step-2h sums differ by more than 1e-10 relative.
    """
    a = params.alpha
    if gamma_ is None:
        gamma_ = 0.5 * a
    if not (0.0 < gamma_ < a) and a < 1.0:
        raise DomainError("gamma must lie in (0, alpha)")
    A, B, L, Db = _dyadic(params)
    (nums, den), Da = _exact(params, n), L // Db
    acc, rise = 0, 1            # rise = (ab + 1)_j L^j; the product, C(j/alpha, n) A^n n!
    for j, c in enumerate(nums):
        acc += c * math.prod(j * Da - i * A for i in range(n)) * rise * L ** (n - j)
        rise *= A * B + L + j * L
    nrm2 = _div((-1) ** n * acc, den * A ** n * math.factorial(n) * L ** n)
    log_aux = 0.5 * _log_aux_norm2(params, n, gamma_, eta_bar)
    aux = math.exp(log_aux) if log_aux <= LOG_DOUBLE_MAX else math.inf
    return math.sqrt(nrm2), aux
