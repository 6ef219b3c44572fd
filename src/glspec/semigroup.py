"""The generator, spectral expansion, heat kernel, classical reference
semigroup, intertwining verification, and the self-similar companion kernel.

Generator on twice-differentiable f:

    L f(x) = (d_ab - x) f'(x) + x * Int_0^1 f''(x y) gt(y) dy,

where gt collects the hypergeometric kernel and the sin(alpha pi)/pi factor;
gt(y) ~ (1 - y)^(-alpha) at the right endpoint, flattened by the substitution
y = 1 - v^(1/(1-alpha)) and integrated on double-exponential nodes in v.
On a generalized polynomial f = sum_i c_i x^(p_i) at double precision the
integral is sum_i c_i p_i (p_i - 1) x^(p_i - 1) m(p_i - 2), with the moments
m(s) = Int y^s gt(y) dy taken once per (params, exponents) on those nodes;
where that float64 sum is not finite or its condition passes
COND_THRESHOLD, and for every other f, f'' is summed on the node array.
At alpha = 1 the generator degenerates to x f'' + (beta + 1 - x) f'.

Spectral side: P_t f = sum_n e^{-n t} <f, R_n> P_n.  The full-space expansion
converges for t above the threshold time t_alpha, with <f, R_n> from a Gauss
rule; generalized polynomials (the image of the reference space under the
intertwining operator) are valid for every t > 0 (the small-space regime),
with <f, R_n> in closed form from R_n's Rodrigues identity, and polynomials
expand finitely.

The heat kernel and the self-similar kernel sum their orders a chunk at a
time (``_kernel_sum``): the float64 sums of P_n(x) and W_n(y) for the
whole chunk come from one Horner pass over the chunk's coefficient rows of
both, stacked (``specfun._basis_values``), and each term reads one value
per order, ``value(n)`` of ``eigen._PBasis`` and ``coeigen._WBasis``.  A
sum the float64 tier did not keep goes to the tiers every evaluator shares
(``specfun._Tiers``) only when the scan reaches it: the first such order
runs the double-double pass for the chunk's remaining failing orders at
once, and an order that fails that too goes to the exact tier alone.  So
each value is bitwise that of ``p_eval`` or ``w_eval``, and no order past
the truncation reaches the higher tiers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln, hyp2f1, rgamma

from .core import (COND_THRESHOLD, LOG_DOUBLE_MAX, DomainError, GLParams, RealFn,
                   TruncationError, eval_on, make_params, phi, real_pow)
from .coeigen import _WBasis, r_eval_bell, r_fn
from .density import markov_lambda_apply, mellin_lambda, moment_s, weight_eval
from .eigen import _PBasis, p_coeffs, p_eval, p_sup
from .quad import QuadRule, build_rule, inner
from .specfun import _basis_values

__all__ = [
    "SpectralExpansion", "generator_apply", "generator_moment_identity_check",
    "expand", "evaluate_expansion", "expansion_fn", "heat_kernel",
    "heat_kernel_mass", "laguerre_semigroup", "intertwine_check",
    "selfsimilar_kernel",
]

_NMAX_DEFAULT = 200

#: orders a kernel sum evaluates at once (``_kernel_sum``), twice as many
#: in its first chunk: the float64 pass costs per column, and most kernel
#: sums stop at n = 16..31, which one pass of 32 columns reaches, not two
#: of 16 and 32
_CHUNK = 16


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------

def _tanh_sinh_nodes(h: float = 0.05, tmax: float = 3.6):
    """Double-exponential nodes/weights for (0, 1)."""
    t = np.arange(-tmax, tmax + h / 2, h)
    st = 0.5 * math.pi * np.sinh(t)
    v = 0.5 * (1.0 + np.tanh(st))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(st) ** 2
    keep = (v > 0.0) & (v < 1.0) & (w > 0.0)
    return v[keep], w[keep]


@lru_cache(maxsize=32)
def _generator_grid(params: GLParams):
    """Cached y-nodes and weighted gt-values for the generator's singular
    integral, built in one array pass over the nodes.

    After y = 1 - delta, delta = v^s, s = 1/(1-alpha), the integrand in v is
    bounded; the remaining fractional endpoint behavior is handled by the
    double-exponential nodes.  The returned values are gt times the
    Jacobian s v^(s-1) and the node weights, so L f needs only a weighted
    sum of f'' values.

    gt(y) = alpha / (c Gamma(1-alpha)) z^c 2F1(c, alpha+1; c+1; z), with
    z = y^(1/alpha) and c = alpha (beta+1) + 1.  Where z <= 1/2 that is one
    vectorised ``hyp2f1`` call.  Where w = 1 - z <= 1/2, the connection
    formula (DLMF 15.8.10) also needs one series only: its first one is
    2F1(c, alpha+1; alpha+1; w) = z^-c, so

        gt = w^(-alpha) z^c 2F1(1, alpha beta+1; 1-alpha; w) / Gamma(1-alpha)
             - Gamma(c) / Gamma(alpha beta + 1).

    All of it is formed from log delta = s log v: z = exp(log(y) / alpha)
    and w = -expm1 of the same exponent, with log y = log1p(-delta) for
    delta < 1/2, so that neither side loses the digits of a tiny delta or
    y.  Since delta^(1-alpha) = v, the singular factor w^(-alpha) times the
    Jacobian is s (w/delta)^(-alpha), and w/delta -> 1/alpha as delta -> 0.
    So where delta underflows (alpha >= 0.96) the weighted value stays
    finite: about s times the node weight.
    """
    a, b = params.alpha, params.beta
    if a == 1.0:
        raise DomainError("classical branch has no singular integral")
    s = 1.0 / (1.0 - a)
    v, wv = _tanh_sinh_nodes()
    log_delta = s * np.log(v)
    delta, y = np.exp(log_delta), -np.expm1(log_delta)
    log_z = np.where(delta < 0.5, np.log1p(-delta), np.log(y)) / a
    w = -np.expm1(log_z)
    # w / delta = (1 + O(delta)) / alpha; at delta < e^-50 that is 1/alpha
    with np.errstate(invalid="ignore"):
        ratio = np.where(log_delta > -50.0, w / delta, 1.0 / a)
    c = a * (b + 1.0) + 1.0
    z_c = np.exp(c * log_z)
    jac = delta / v                      # v^(s-1): the Jacobian over s
    near = w <= 0.5
    far = ~near
    gt_jac = np.empty_like(v)
    gt_jac[near] = (rgamma(1.0 - a) * z_c[near] * ratio[near] ** -a
                    * hyp2f1(1.0, a * b + 1.0, 1.0 - a, w[near])
                    - math.exp(gammaln(c) - gammaln(a * b + 1.0)) * jac[near])
    gt_jac[far] = (a / c * rgamma(1.0 - a) * z_c[far] * jac[far]
                   * hyp2f1(c, a + 1.0, c + 1.0, np.exp(log_z[far])))
    return y, s * wv * gt_jac


@lru_cache(maxsize=64)
def _grid_moments(params: GLParams, exps: tuple) -> tuple:
    """m(s) = sum_j gw_j y_j^s over the generator grid (``_generator_grid``),
    for each s of ``exps``: Int y^s gt(y) dy by the same nodes and weights
    that the node route sums f'' on.  inf or nan where y^s leaves the
    double range."""
    y, gw = _generator_grid(params)
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(float(gw @ np.power(y, s)) for s in exps)


def _moment_integral(params: GLParams, powers, x: float) -> Optional[float]:
    """x Int_0^1 f''(x y) gt(y) dy for f = sum_i c_i x^(p_i) from the grid's
    moments: sum_i c_i p_i (p_i - 1) x^(p_i - 1) m(p_i - 2), added by
    math.fsum.  None where that float64 sum is not finite or its condition
    sum |t_i| / |sum t_i| passes COND_THRESHOLD; a sum of exact zeros (the
    powers 0 and 1 only) is 0."""
    terms = [(c * p * (p - 1.0), p) for c, p in powers if p * (p - 1.0) != 0.0]
    ms = _grid_moments(params, tuple(p - 2.0 for _, p in terms))
    ts = [k * m * real_pow(x, p - 1.0) for (k, p), m in zip(terms, ms)]
    try:
        total, mag = math.fsum(ts), math.fsum(map(abs, ts))
    except (OverflowError, ValueError):      # inf - inf, or a partial sum past the range
        return None
    if not mag <= COND_THRESHOLD * abs(total):
        return None
    return total


def generator_apply(params: GLParams, f: RealFn, x: float) -> float:
    """Generator value L f(x) for twice-differentiable f.

    Uses exact derivatives when the RealFn carries them, central finite
    differences otherwise.  For f with ``powers`` at double precision the
    singular integral is a sum over the grid's moments of gt
    (``_moment_integral``), without f''.  Everywhere else, and where that
    sum is not finite or is ill-conditioned, f'' is taken on the whole
    x * y node array of the singular integral in one call
    (``core.eval_on``), or point by point where it takes floats only.
    """
    if x <= 0.0:
        raise DomainError("generator acts on functions of x > 0")
    a, b = params.alpha, params.beta
    if params.is_classical:
        return x * f.deriv2(x) + (b + 1.0 - x) * f.deriv1(x)
    powers = getattr(f, "powers", None)
    integral = None
    if powers is not None and params.precision.is_double:
        integral = _moment_integral(params, powers, x)
    if integral is None:
        y, gw = _generator_grid(params)
        integral = x * float(gw @ eval_on(f.deriv2, x * y))
    return (params.d_ab - x) * f.deriv1(x) + integral


def generator_moment_identity_check(params: GLParams, k: int) -> float:
    """Residual |k(k-1) Int y^(k-2) gt(y) dy - (k phi(k) - k d_ab)|.

    Both sides vanish at k = 1; the left side is the quadrature route (the
    grid moment that ``generator_apply`` sums, ``_grid_moments``), the right
    side the gamma-ratio route.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    rhs = k * phi(params, k).real - k * params.d_ab
    if k == 1:
        return abs(rhs)
    if params.is_classical:
        # integral term of the classical generator acting on x^k
        return abs(k * (k - 1.0) - (k * phi(params, k).real - k * params.d_ab))
    lhs = k * (k - 1.0) * _grid_moments(params, (k - 2.0,))[0]
    return abs(lhs - rhs)


# --------------------------------------------------------------------------
# Spectral expansion
# --------------------------------------------------------------------------

@dataclass
class SpectralExpansion:
    """Truncated expansion sum_n a_n P_n with a_n = e^{-n t} <f, R_n>."""

    params: GLParams
    t: float
    coeffs: np.ndarray
    tail_estimate: float
    regime: str                      # "full_space" | "small_space"
    warnings: tuple = ()

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1


def _against_r(params: GLParams, powers):
    """<f, R_n>, n = 0, 1, ..., for f = sum_i c_i x^(p_i): the Rodrigues form
    R_n e = (x^n e)^(n) / n!, integrated by parts n times, gives

        <x^p, R_n> = (-1)^n C(p, n) M_e(p),  C(p, n) = p (p-1) ... (p-n+1) / n!,

    M_e of ``density.moment_s`` (DomainError where it diverges).  Each term
    c_i M_e(p_i) C(p_i, n) is a float64 product, c_i M_e(p_i) from logs where
    M_e(p_i) leaves the double range (P_k's tiny c_k against a huge M_e(k)),
    and math.fsum adds them; DomainError where a c_i M_e(p_i) overflows."""
    a, ab = params.alpha, params.alpha * params.beta
    cms = []
    for c, p in powers:
        m = moment_s(params, p)
        if c != 0.0 and not 2.0 ** -1022 <= m < math.inf:     # M_e(p) not a normal double
            lg = math.log(abs(c)) + gammaln(a * p + ab + 1.0) - gammaln(ab + 1.0)
            m, c = 1.0, math.copysign(math.exp(lg) if lg <= LOG_DOUBLE_MAX else math.inf, c)
        cms.append(c * m)
    if not all(map(math.isfinite, cms)):
        raise DomainError("inner products against R_n leave the double range")
    binom = [1.0] * len(powers)
    for n in itertools.count():
        yield (-1.0) ** n * math.fsum(map(operator.mul, cms, binom))
        binom = [b * (p - n) / (n + 1) for b, (_, p) in zip(binom, powers)]


def expand(params: GLParams, f, t: float, rule: Optional[QuadRule] = None,
           tol: float = 1e-10, nmax: int = _NMAX_DEFAULT) -> SpectralExpansion:
    """Spectral coefficients a_n = e^(-nt) <f, R_n> of P_t f until the tail
    estimate drops below tol.

    A generalized polynomial (f with ``powers``) is in the small-space
    regime, with <f, R_n> in closed form (``_against_r``).  One whose powers
    are all nonnegative integers stops exactly after its degree d, as C(p,
    n) = 0 past n = p, and raises TruncationError where d > nmax.  Any other
    f takes <f, R_n> from the rule (order 160 by default) by ``quad.inner``.
    Where the sum does not stop exactly, the tail estimate is |a_n| times
    the sup of |P_n| over the default evaluation window, and three
    consecutive sub-tolerance terms from n = 6 on stop the scan.  A warning
    is recorded when t <= t_alpha in the full-space regime.
    """
    if not t >= 0.0:
        raise DomainError("time must be >= 0")
    powers = getattr(f, "powers", None)
    regime = "small_space" if powers is not None else "full_space"
    warns = []
    if regime == "full_space" and t <= params.t_alpha and not params.is_classical:
        warns.append(
            f"t = {t} is at or below the full-space threshold {params.t_alpha:.6f}; "
            "convergence only guaranteed on the smaller spaces")
    max_deg = None
    if powers is None:
        rule = build_rule(params, 160) if rule is None else rule
        against_r = (inner(rule, f, r_fn(params, n)) for n in itertools.count())
    else:
        against_r = _against_r(params, powers)
        if all(abs(p - round(p)) < 1e-12 and round(p) >= 0 for _, p in powers):
            max_deg = max((round(p) for _, p in powers), default=0)
    coeffs, small, tail = [], 0, math.inf
    for n, c_n in zip(range(nmax + 1), against_r):
        a_n = math.exp(-n * t) * c_n
        coeffs.append(a_n)
        if max_deg is not None:
            if n < max_deg:
                continue
            tail = 0.0              # generalized polynomial: exactly finite
            break
        tail = abs(a_n) * p_sup(params, max(n, 1))
        if tail < tol and n >= 6:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise TruncationError(
            f"expansion cap {nmax} reached with tail estimate {tail:.2e} > {tol}")
    return SpectralExpansion(params, t, np.array(coeffs), tail,
                             regime, tuple(warns))


def evaluate_expansion(exp: SpectralExpansion, x: float, k: int = 0,
                       p: int = 0) -> float:
    """sum_n (-n)^k a_n P_n^(p)(x): time and space derivatives of P_t f."""
    if x < 0.0:
        raise DomainError("evaluation window is x >= 0")
    params = exp.params
    seq = p_coeffs(params, exp.N)
    acc = 0.0
    for n, a_n in enumerate(exp.coeffs):
        if a_n == 0.0 or n < p:
            continue
        fac = (-float(n)) ** k if k else 1.0
        acc += fac * a_n * p_eval(seq, n, x, p)
    return acc


def expansion_fn(exp: SpectralExpansion) -> RealFn:
    return RealFn(lambda x: evaluate_expansion(exp, x),
                  description=f"P_t f (t={exp.t})")


# --------------------------------------------------------------------------
# Heat kernel and companions
# --------------------------------------------------------------------------

def heat_kernel(params: GLParams, t: float, x: float, y: float, k: int = 0,
                p: int = 0, q: int = 0, tol: float = 1e-10,
                nmax: int = _NMAX_DEFAULT) -> float:
    """Transition density (and derivatives)

        d^k/dt^k P_t^(p,q)(x, y) = sum_{n >= p} (-n)^k e^{-nt} W_n^(q)(y) P_n^(p)(x)

    truncated once three consecutive terms fall below tol times the running
    scale (``_kernel_sum``).  TruncationError when the cap is reached first.
    """
    if not t > 0.0:
        raise DomainError("heat kernel needs t > 0")
    k, p, q = map(operator.index, (k, p, q))
    if min(k, p, q) < 0:
        raise DomainError("derivative orders must be >= 0")
    return _kernel_sum(_PBasis(params, x, p), _WBasis(params, y, q),
                       lambda n: np.exp(-n * t) * (-n) ** k, p, nmax, tol,
                       f"heat kernel cap {nmax} reached (t may be too small)")


def _kernel_sum(pb, wb, factor, lo: int, nmax: int, tol: float, cap: str) -> float:
    """sum_{n = lo..nmax} factor(n) W_n P_n, from the bases ``wb`` and
    ``pb``, truncated once three consecutive terms fall below tol times the
    running scale; TruncationError(cap) where the terms run out first.

    The orders come in chunks of _CHUNK (2 _CHUNK for the first): one
    float64 pass gives the sums of W_n and P_n (P's rows counted from
    ``pb.p``, its derivative order) for a whole chunk, and the factors come
    as one array.  The higher tiers run for an order only when the scan
    reaches it (``value(n)``), since past the truncation nearly every order
    fails the condition test and they cost far more than the float64 one.
    """
    acc = scale = 0.0
    small = 0
    c, hi = lo, min(lo + 2 * _CHUNK - 1, nmax)
    while c <= nmax:
        _basis_values([(wb.basis, c, hi), (pb.basis, c - pb.p, hi - pb.p)])
        for n, f in zip(range(c, hi + 1), factor(np.arange(float(c), hi + 1.0)).tolist()):
            term = f * wb.value(n) * pb.value(n)
            acc += term
            scale = max(scale, abs(term), abs(acc))
            if abs(term) <= tol * max(scale, 1e-300):
                small += 1
                if small >= 3:
                    return acc
            else:
                small = 0
        c, hi = hi + 1, min(hi + _CHUNK, nmax)
    raise TruncationError(cap)


def heat_kernel_mass(params: GLParams, t: float, x, rule: Optional[QuadRule] = None,
                     tol: float = 1e-9, nmax: int = _NMAX_DEFAULT):
    """Row mass Int P_t(x, y) dy and min kernel value over the rule's nodes.

    Works through P_t(x, y)/e(y) = sum_n e^{-nt} R_n(y) P_n(x) so the
    co-eigenfunction node values are shared across all requested x; per n,
    R_n on the nodes and P_n on the x are one array evaluation each.  Nodes
    whose quadrature weight is below 1e-20 of the maximum are skipped: their
    contribution is orders of magnitude below the tolerance, while the
    kernel series there is at its most expensive.  TruncationError at the
    cap, or once the largest weighted term of an order n >= 80 is above all
    those 40 or more orders before: the terms then outpace e^(-nt)."""
    if not t > 0.0:
        raise DomainError("heat kernel needs t > 0")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if rule is None:
        rule = build_rule(params, 120)
    keep = rule.weights >= 1e-20 * rule.weights.max()
    nodes = rule.nodes[keep]
    wts = rule.weights[keep]
    seq = p_coeffs(params, nmax)
    acc = np.zeros((len(xs), nodes.size))
    small, rels = 0, []
    for n in range(nmax + 1):
        rn = r_eval_bell(params, n, nodes)
        pn = p_eval(seq, n, xs)
        term = math.exp(-n * t) * np.outer(pn, rn)
        acc += term
        rel = np.max(np.abs(term) * wts)
        rels.append(rel)
        if rel <= tol / 10.0:
            small += 1
            if small >= 3:
                break
        else:
            small = 0
            if n >= 80 and rel > max(rels[:n - 39]):
                raise TruncationError(f"kernel mass terms grew past orders 0..{n - 40}")
    else:
        raise TruncationError(f"kernel mass cap {nmax} reached")
    masses = acc @ wts
    dens = np.array([weight_eval(params, float(yy)) for yy in nodes])
    kmin = float((acc * dens).min())
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(masses[0]), kmin
    return masses, kmin


def laguerre_semigroup(beta: float, t: float, f, x,
                       tol: float = 1e-12, nmax: int = _NMAX_DEFAULT):
    """Classical reference semigroup of order beta via its eigenexpansion.

    Q_t f(x) = sum_n e^{-nt} <f, L_n> L_n(x) / ||L_n||^2 with the classical
    Laguerre polynomials; coefficients by the order-beta Gauss rule, which is
    exact for polynomial f.  x is a scalar or an array (the result has its
    shape).  f is evaluated on the rule's nodes once (``core.eval_on``),
    each coefficient is formed once, and one three-term recurrence runs
    over the nodes and every x together.  Each x stops on its own
    small-term test, so an array gives the values of the scalar calls.
    """
    if not t >= 0.0:
        raise DomainError("time must be >= 0")
    rule = build_rule(make_params(1.0, beta), 180)
    m = rule.nodes.size
    xa = np.asarray(x, dtype=float)
    fv = eval_on(f, rule.nodes)
    z = np.concatenate([rule.nodes, xa.ravel()])
    lm1, ln = None, np.ones_like(z)        # L_{n-1}, L_n at nodes and x
    acc = np.zeros(xa.size)
    small = np.zeros(xa.size, dtype=int)
    live = np.ones(xa.size, dtype=bool)
    for n in range(nmax + 1):
        if n == 1:
            lm1, ln = ln, 1.0 + beta - z
        elif n > 1:
            k = n - 1
            lm1, ln = ln, ((2.0 * k + 1.0 + beta - z) * ln - (k + beta) * lm1) / (k + 1.0)
        cn = float(rule.weights @ (ln[:m] * fv))
        norm2 = math.exp(gammaln(n + beta + 1.0) - gammaln(n + 1.0)
                         - gammaln(beta + 1.0))
        term = math.exp(-n * t) * cn / norm2 * ln[m:]
        acc[live] += term[live]
        tiny = np.abs(term) <= tol * np.maximum(np.abs(acc), 1.0)
        small = np.where(tiny, small + 1, 0)
        live &= small < 3
        if not live.any():
            return float(acc[0]) if xa.ndim == 0 else acc.reshape(xa.shape)
    raise TruncationError(f"classical expansion cap {nmax} reached")


def intertwine_check(params: GLParams, f, t: float, xs,
                     rule: Optional[QuadRule] = None) -> dict:
    """max_x |P_t (Lam f)(x) - Lam (Q_t f)(x)| over the grid.

    Left side: Markov image of f, then the spectral expansion.  Right side:
    classical order-0 semigroup, then the Markov operator applied pointwise.
    The two paths share no numerical machinery beyond the kernel density.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    powers = getattr(f, "powers", None)
    lam_f = RealFn(lambda xx: markov_lambda_apply(params, f, xx), description="Lam f",
                   powers=None if powers is None else
                   tuple((c * mellin_lambda(params, pw).real, pw) for c, pw in powers))
    exp_left = expand(params, lam_f, t, rule)
    left = np.array([evaluate_expansion(exp_left, float(xx)) for xx in xs])
    qt = RealFn(lambda yy: laguerre_semigroup(0.0, t, f, yy), description="Q_t f")
    right = np.array([markov_lambda_apply(params, qt, float(xx)) for xx in xs])
    disc = np.abs(left - right)
    return {"max_discrepancy": float(disc.max()), "xs": xs, "left": left,
            "right": right}


def selfsimilar_kernel(params: GLParams, t: float, x: float, y: float,
                       tol: float = 1e-10, nmax: int = _NMAX_DEFAULT) -> float:
    """Companion kernel K_t(x, y) = sum_n (1+t)^{-n-1} W_n(y/(1+t)) P_n(x),
    truncated as ``heat_kernel``.

    Related to the heat kernel by P_s(x, z) = e^s K_{e^s - 1}(x, e^s z).
    """
    if not t > 0.0:
        raise DomainError("self-similar kernel needs t > 0")
    return _kernel_sum(_PBasis(params, x), _WBasis(params, y / (1.0 + t)),
                       lambda n: (1.0 + t) ** (-n - 1.0), 0, nmax, tol,
                       f"self-similar kernel cap {nmax} reached")
