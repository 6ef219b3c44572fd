"""Quadrature against the invariant density, inner products, norms,
biorthogonality matrices, and Bessel-inequality checks.

Inner products against R_n take no rule: its Rodrigues form
R_n e = (x^n e)^(n) / n!, integrated by parts n times, gives <x^p, R_n> =
(-1)^n C(p, n) M_e(p), which ``semigroup.expand`` sums in float64 and
``r_norm`` over R_n's exact row in Python integers.  ``gram_biorth`` sums
<P_n, R_m> as one integer per entry over the factored exact moments, with
gammas the tables did not make.  The auxiliary norm of R_n, against a
growing weight, is a float64 double-exponential rule.  The Gauss rules of
``build_rule`` integrate general f against the invariant density: at
alpha = 1 the generalized Gauss-Laguerre rule; for rational alpha = p/q,
v = x**(1/p) turns it into p v**(p b + q - 1) exp(-v**q), whose Gauss rule
(Stieltjes recurrence, Golub-Welsch nodes, Christoffel weights) is checked
against its exact moments of degree 0..2m-1; irrational alpha falls back
to the u = x**(1/alpha) generalized Gauss-Laguerre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(x) along axis, each term shifted by the largest (by 0
    where that is not finite, so all -inf gives -inf)."""
    m = np.max(x, axis=axis, keepdims=True, initial=-math.inf)
    m[~np.isfinite(m)] = 0.0
    return np.log(np.sum(np.exp(x - m), axis=axis)) + np.squeeze(m, axis=axis)


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


def _rising(X: int, L: int, count: int) -> list:
    """X (X + L) ... (X + (j - 1) L) = (x)_j L^j, x = X / L, for j < count."""
    return list(accumulate(range(X, X + (count - 1) * L, L), lambda r, t: r * t, initial=1))


#: bits past the terms' magnitude S that ``gram_biorth`` takes P's row and
#: the gammas to: S 2^-70 < 1e-21 per entry
_GRAM_BITS = 70


def gram_biorth(params: GLParams, N: int) -> np.ndarray:
    """Matrix G_{nm} = <P_n, R_m> for n, m <= N; identity when everything
    works.  The moments of x^k x^(j/alpha) factor exactly, Gamma(x_k + j) /
    Gamma(x_0) = gamma_k (x_k)_j with x_k = alpha k + ab + 1 = xs[k] / L
    (``coeigen._dyadic``), so for P_n = sum_k a_nk x^k, the g_k row the "P"
    table holds (``eigen._exact``), and R_m = sum_j b_mj x^(j/alpha), its
    exact rows (``coeigen._exact``),

        G_nm = sum_k a_nk gamma_k T_mk,   T_mk = sum_j b_mj (x_k)_j,

    T exact in integers and gamma_k = Gamma(x_k) / Gamma(x_0) from N + 1
    fresh gammas, which G compares with the table's g_k.  Exactly, a_nk
    gamma_k = (-1)^k C(n, k) and T_mk = (-1)^m C(k, m), so S = max_m sum_k
    C(N, k) |T_mk| bounds the terms; P's row and the gammas are taken to
    _GRAM_BITS past S (to ``mantissa_bits`` at extended precision if more),
    and each entry is one integer ratio, one correctly rounded division."""
    if N < 0:
        raise DomainError("N must be >= 0")
    ns = range(N + 1)
    A, B, L, Db = _dyadic(params)
    xs = [A * Db * k + A * B + L for k in ns]
    R = [_exact(params, m) for m in ns[::-1]][::-1]     # R_N first: the "R" table grows once
    Bm = np.array([[c * L ** (m - j) for j, c in enumerate(nums)] + [0] * (N - m)
                   for m, (nums, _) in enumerate(R)], dtype=object)    # b_mj den_m L^(m - j)
    T = Bm @ np.array([_rising(X, L, N + 1) for X in xs], dtype=object).T
    dens = [den * L ** m for m, (_, den) in enumerate(R)]       # T_mk = T[m, k] / dens[m]
    S = np.abs(T) @ np.array([math.comb(N, k) for k in ns], dtype=object)
    bits = max(_GRAM_BITS + max(s.bit_length() - d.bit_length() + 1 for s, d in zip(S, dens)),
               0 if params.precision.is_double else params.precision.mantissa_bits)
    P = [_exact_p(params, n, bits) for n in ns[::-1]][::-1]     # P_N first: so is "P"
    with mp.workprec(bits + 4):
        g = [mp.gamma(mp.make_mpf(mp.libmp.from_man_exp(X, 1 - L.bit_length()))) for X in xs]
        gam = [(gk / g[0]).man_exp for gk in g]
    e0 = min(e for _, e in gam)
    U = np.array([[c * m << e - e0 for c, (m, e) in zip(nums, gam)] + [0] * (N - n)
                  for n, (nums, *_) in enumerate(P)], dtype=object)    # a_nk gamma_k den_n 2^-e0
    F = U @ T.T
    return np.array([[_div(F[n, m], den * d << -e0) for m, d in enumerate(dens)]
                     for n, (_, den, _) in enumerate(P)])


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
    acc = 0                     # rise = (ab + 1)_j L^j; the product, C(j/alpha, n) A^n n!
    for j, (c, rise) in enumerate(zip(nums, _rising(A * B + L, L, n + 1))):
        acc += c * math.prod(j * Da - i * A for i in range(n)) * rise * L ** (n - j)
    nrm2 = _div((-1) ** n * acc, den * A ** n * math.factorial(n) * L ** n)
    log_aux = 0.5 * _log_aux_norm2(params, n, gamma_, eta_bar)
    aux = math.exp(log_aux) if log_aux <= LOG_DOUBLE_MAX else math.inf
    return math.sqrt(nrm2), aux
