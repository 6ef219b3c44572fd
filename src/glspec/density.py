"""The invariant density, the multiplicative kernel density, Mellin
multipliers, and the Markov operator with its adjoint.

The invariant density, the weight of L2(e) and of every quadrature rule, is

    e(x) = x**(beta + 1/alpha - 1) * exp(-x**(1/alpha)) / (alpha * Gamma(alpha*beta + 1))

normalised to unit mass, so that its Mellin moments are
Gamma(alpha*s + alpha*beta + 1) / Gamma(alpha*beta + 1) and the multiplier
factorisation M_lambda(s) * M_e(s) = Gamma(s + 1) holds exactly.  At
alpha = 1 it is the classical Laguerre weight x**beta exp(-x) / Gamma(beta + 1).

The kernel density lambda (Mellin transform M_lambda), the Wright function
Gamma(ab + 1) phi(-alpha, bb; -z), bb = ab + 1 - alpha, has one route at
every precision, in float64: its residue series cut to the terms that can
matter, by the one float64 Horner pass (``specfun._horner_float``), else
one trapezoid pass of its Hankel integral (``_plan``, ``_hankel``).  A
float z and an array take the same steps, so to the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammasgn, poch, roots_jacobi, roots_legendre

from .core import (LOG_DOUBLE_MAX, ContourError, DomainError, GLParams,
                   eval_on, real_pow)
from .specfun import _horner_float, _horner_ragged, log_gamma, rgamma_c

__all__ = [
    "weight_eval", "log_weight_eval", "lambda_values",
    "moment", "moment_s", "mellin_e", "mellin_lambda", "lambda_value",
    "markov_lambda_apply", "markov_lambda_adjoint_apply",
]


# --------------------------------------------------------------------------
# The invariant density
# --------------------------------------------------------------------------

def log_weight_eval(params: GLParams, x: float) -> float:
    """Log of the invariant density e at x, finite where e(x) itself under-
    or overflows.  DomainError for x <= 0."""
    if x <= 0.0:
        raise DomainError(f"weights live on (0, inf), got x = {x}")
    a, b = params.alpha, params.beta
    return ((b + 1.0 / a - 1.0) * math.log(x) - real_pow(x, 1.0 / a)
            - math.log(a * math.exp(gammaln(a * b + 1.0))))


def weight_eval(params: GLParams, x: float) -> float:
    """Invariant density e at x; DomainError for x <= 0, 0.0 below the
    double range and inf above it."""
    lw = log_weight_eval(params, x)
    return math.inf if lw > LOG_DOUBLE_MAX else math.exp(lw)


# --------------------------------------------------------------------------
# Moments and Mellin transforms
# --------------------------------------------------------------------------

def moment(params: GLParams, k: int) -> float:
    """Integer moment of the invariant density: Gamma(a k + a b + 1)/Gamma(a b + 1)."""
    if k < 0:
        raise DomainError("moment order must be >= 0")
    return moment_s(params, float(k))


def moment_s(params: GLParams, s: float) -> float:
    """Real-order moment Gamma(a s + a b + 1) / Gamma(a b + 1), valid for
    s > -(beta + 1/alpha): the Pochhammer symbol (ab + 1)_(a s), inf above
    the double range and 0 below it."""
    a, b = params.alpha, params.beta
    if a * s + a * b + 1.0 <= 0.0:
        raise DomainError(f"moment of order {s} diverges")
    return float(poch(a * b + 1.0, a * s))


def mellin_e(params: GLParams, s) -> complex:
    """Shifted Mellin transform of the invariant density."""
    a, b = params.alpha, params.beta
    sc = complex(s)
    if sc.real <= -(b + 1.0 / a):
        raise DomainError("mellin_e needs Re(s) > -(beta + 1/alpha)")
    import cmath
    return cmath.exp(log_gamma(a * sc + a * b + 1.0) - gammaln(a * b + 1.0))


def mellin_lambda(params: GLParams, s) -> complex:
    """Markov multiplier Gamma(s+1) Gamma(a b + 1) / Gamma(a s + a b + 1).

    Analytic on Re(s) > -1; equals 1 at s = 0; at nonnegative integers it is
    the eigenvalue of the Markov operator on monomials.
    """
    sc = complex(s)
    if sc.real <= -1.0:
        raise DomainError("mellin_lambda needs Re(s) > -1")
    a, b = params.alpha, params.beta
    import cmath
    out = cmath.exp(log_gamma(sc + 1.0) + gammaln(a * b + 1.0)) \
        * rgamma_c(a * sc + a * b + 1.0)
    if isinstance(s, (int, float)):
        return complex(out.real, 0.0) if abs(out.imag) < 1e-13 * (1 + abs(out.real)) else out
    return out


# --------------------------------------------------------------------------
# Kernel density lambda
# --------------------------------------------------------------------------

#: terms of the residue series lambda(z) = sum_k c_k z^k summed at a node
_RESIDUE_TERMS = 256

#: a node keeps its residue sum s up to this condition mag / |s|, mag = sum
#: |c_k| z^k.  s is off by at most (2K u + e) mag: 2K u for Horner over K
#: terms (Higham 2002, §5.1; u = 2^-53), e for the c_k, exp'd from their
#: logs (1e-13 at worst).  1e4 keeps about 11 digits; 1e6 would allow 1e-9
_SERIES_COND = 1.0e4

#: a sum runs to K(z), the last k with |c_k| z^k >= e^-_CUT = 1e-22 of the
#: largest term; a tail term past e^_TAIL |s| stops it; K is tabled on a grid
_CUT, _TAIL, _CUT_GRID = 22.0 * math.log(10.0), -17.0 * math.log(10.0), np.arange(-32, 33) / 4.0


@lru_cache(maxsize=32)
def _residue_row(params: GLParams):
    """(c, tail, cells): c_k = Gamma(ab + 1) (-1)^k / (Gamma(bb - a k) k!),
    k < _RESIDUE_TERMS, read-only (bb rounded from its exact value, as ab +
    1 - a cancels near beta = 1 - 1/alpha; 0 at the poles of Gamma), (k,
    log|c_k|) of the last three, and (K_i, a_i, b_i) per cell (g_{i-1},
    g_i] of log z, g = _CUT_GRID, and one past it.  K(z) is nondecreasing
    (a term past the peak within 1e-22 of it stays so until the peak passes
    it), so K_i = K(e^g_i) bounds it; the largest term's log is convex and
    increasing in log z, so under the cell's chord (before the grid under
    its first value, past it on slope n - 1), and a_i + b_i log z, that
    bound plus log 2 (K_i + 1) 1e-17, lies above 1e-17 mag >= 1e-17 |s|."""
    n, a = _RESIDUE_TERMS, Fraction(params.alpha)
    k = np.arange(float(n))
    w = float(a * Fraction(params.beta) + 1 - a) - params.alpha * k
    lc = gammaln(params.alpha * params.beta + 1.0) - gammaln(w) - gammaln(k + 1.0)
    c = np.where(k % 2 == 1, -1.0, 1.0) * np.nan_to_num(gammasgn(w)) * np.exp(lc)
    c.flags.writeable = False
    terms = lc + _CUT_GRID[:, None] * k
    peak = terms.max(axis=1)
    cut = np.append(n - 1 - np.argmax((terms >= peak[:, None] - _CUT)[:, ::-1], axis=1), n - 1)
    line_b = np.concatenate([[0.0], np.diff(peak) * 4.0, [n - 1.0]])
    at = np.append(0, np.arange(peak.size))          # each line's grid point
    line_a = peak[at] - line_b * _CUT_GRID[at] + np.log(2.0 * (cut + 1.0)) + _TAIL
    return (c, tuple(zip(range(n - 3, n), lc[-3:].tolist())),
            tuple(zip(cut.tolist(), line_a.tolist(), line_b.tolist())))


def _residue_sum(params: GLParams, z):
    """lambda at a float z > 0, or at each point of an ndarray, by its
    residue series cut at K(z), and whether each sum s stands: mag <=
    _SERIES_COND |s| < inf, and the row's last three terms |c_k| z^k at most
    1e-17 |s| (their envelope Gamma(alpha k + 1 - bb) z^k / k! is log-concave
    in k).  A z with a tail term over its cell's line cannot stand and is
    not summed (s = nan).  An array takes ``specfun._horner_ragged``, each
    point's own bits.  Terms past K are below 1e-18 of a standing |s|, and a
    standing cut sum has the whole row's bits: checked, not proved."""
    c, tail, cells = _residue_row(params)
    if not isinstance(z, np.ndarray):
        lz = math.log(z)
        cut, la, lb = cells[bisect_left(_CUT_GRID, lz)]
        if max(lck + k * lz for k, lck in tail) > la + lb * lz:
            return math.nan, False
        s, mag = _horner_float(c[:cut + 1], z)
        edge = (math.log(abs(s)) if s else -math.inf) + _TAIL
        return s, (mag <= _SERIES_COND * abs(s) and mag < math.inf
                   and all(lck + k * lz <= edge for k, lck in tail))
    lz = np.array([math.log(x) for x in z.tolist()])
    cut, la, lb = np.array(cells)[np.searchsorted(_CUT_GRID, lz)].T
    top = np.max([lck + k * lz for k, lck in tail], axis=0)
    todo = np.flatnonzero(top <= la + lb * lz)
    s, ok = np.full(z.shape, math.nan), np.zeros(z.shape, dtype=bool)
    if todo.size:
        with np.errstate(over="ignore", invalid="ignore"):
            s[todo], mag = _horner_ragged(c, z[todo], cut[todo].astype(int))
        edge = np.array([math.log(abs(x)) if x else -math.inf for x in s[todo].tolist()])
        ok[todo] = ((mag <= _SERIES_COND * np.abs(s[todo])) & (mag < math.inf)
                    & np.all([lck + k * lz[todo] <= edge + _TAIL for k, lck in tail], axis=0))
    return s, ok


#: Hankel step in units of the integrand's width, node budget, settle test
_H0, _MAX_NODES, _SETTLE = 1.0 / 12.0, 4096, 1e-13


def _plan(params: GLParams, z: float):
    """(sigma, c, h, n, l0) of ``_hankel`` at a float z > 0, or None where
    lambda lies below the double range.  sigma >= 1 is the saddle of exp(tau
    - z tau^alpha) tau^(1/2 - bb), the integrand with the Jacobian: T =
    (alpha z)^(1/(1 - alpha)) at bb <= 1/2, else one Newton step from T +
    (bb - 1/2) / (1 - alpha), which stays right of it (the equation is
    convex).  h = _H0 min(1, (2 / a)^(1/2)), Re log v ~ -a u^2 near 0.  As sigma
    >= T, |v(u)| <= exp(-kappa sigma (1 - alpha) u^2) (1 + u^2)^max(0, 1/2 -
    bb), kappa = min(2, 1 / (1 - alpha)) (checked over alpha, not proved),
    below 1e-17 past the n nodes; ContourError past _MAX_NODES."""
    al, bb = params.alpha, params.bar_beta_alpha
    lt = (math.log(al) + math.log(z)) / (1.0 - al)
    if lt > 700.0:                  # lambda < exp(-(1/alpha - 1) e^700)
        return None
    b = bb - 0.5
    s = math.exp(lt) + max(b, 0.0) / (1.0 - al)
    if b > 0.0:
        w = al * z * s ** al
        s -= (s - w - b) / (1.0 - al * w / s)
    sigma = max(s, 1.0)
    c = z * sigma ** al
    rate = sigma * (1.0 - al)
    h = _H0 * min(1.0, math.sqrt(2.0 / max(sigma + c * al * (1.0 - 2.0 * al) + b, rate)))
    rate *= min(2.0, 1.0 / (1.0 - al))
    u2 = 0.0
    for _ in range(3):              # e^-39.2 < 1e-17
        u2 = (39.2 + max(-b, 0.0) * math.log1p(u2)) / rate
    n = math.ceil(math.sqrt(u2) / h) + 1
    l0 = (math.lgamma(al * params.beta + 1.0) + math.log(2.0 * h / math.pi)
          + (1.0 - bb) * math.log(sigma) + sigma - c)
    if l0 + math.log(n) < -760.0:
        return None
    if n > _MAX_NODES:
        raise ContourError("kernel contour failed to decay below tolerance")
    return sigma, c, h, n, l0


def _hankel(params: GLParams, plans) -> list:
    """Kernel density at the points of plans (``_plan``) by the Wright
    function's Hankel integral (Gorenflo, Luchko & Mainardi, FCAA 2, 1999),

        lambda(z) = Gamma(ab + 1) (1/2 pi i) int_Ha exp(tau - z tau^alpha) tau^-bb dtau,

    on tau = sigma (1 + i u)^2 (Weideman & Trefethen, Math. Comp. 76, 2007):
    lambda = e^l0 (1/2 + sum_j Re v(j h)), v the integrand over its value
    at u = 0, e^l0 = Gamma(ab + 1) (2 h / pi) sigma^(1 - bb) e^(sigma - c),
    c = z sigma^alpha; (1 + i u)^(2 alpha) - 1 by expm1 of the log's parts.
    One numpy pass over one row per point, zero past the row's n nodes,
    each sum in node order: a row has the same bits alone or in any block.
    ContourError where the even nodes' rule (step 2h) is off by more than
    1e-13 sum |Re v|."""
    al, bb = params.alpha, params.bar_beta_alpha
    sigma, c, h, n, _ = np.array(plans).T[:, :, None]
    j = np.arange(float(max(p[3] for p in plans)))
    u = h * j
    u2 = u * u
    ell = 0.5 * np.log1p(u2) + 1j * np.arctan(u)
    e = (1.0 - 2.0 * bb) * ell + sigma * (2j * u - u2) - c * np.expm1((2.0 * al) * ell)
    v = np.exp(e).real
    if len(plans) > 1:
        v[j >= n] = 0.0
    v[:, 0] = 0.5
    S, S2, A = (np.add.accumulate(x, axis=1)[:, -1].tolist() for x in (v, v[:, ::2], abs(v)))
    if not all(abs(s - 2.0 * s2) <= _SETTLE * a for s, s2, a in zip(S, S2, A)):
        raise ContourError("kernel contour sums did not settle at step h against 2h")
    return [math.copysign(math.exp(math.log(abs(s)) + p[4]), s) if s else 0.0
            for s, p in zip(S, plans)]


def lambda_values(params: GLParams, z) -> np.ndarray:
    """Kernel density at every point of the array z >= 0, in float64 at
    every precision: Gamma(ab + 1) / Gamma(bb) at 0, else the residue sum
    where it stands, else the Hankel pass in blocks of 64 points; round-off
    below 0 is 0.0.  Each value depends on its own z only."""
    zs = np.asarray(z, dtype=float)
    if params.alpha >= 1.0:
        raise DomainError("alpha = 1: kernel is a point mass, no density")
    if not np.all(zs >= 0.0):
        raise DomainError("density argument must be >= 0")
    flat = zs.ravel()
    out = np.full(flat.shape, _residue_row(params)[0][0])
    pos = np.flatnonzero(flat > 0.0)
    out[pos], ok = _residue_sum(params, flat[pos])
    rest = pos[~ok]
    out[rest] = 0.0
    live = [(i, p) for i, p in zip(rest.tolist(), (_plan(params, x) for x in flat[rest].tolist()))
            if p is not None]
    for part in (live[i:i + 64] for i in range(0, len(live), 64)):
        idx, plans = zip(*part)
        out[list(idx)] = _hankel(params, plans)
    return np.where(out <= 0.0, 0.0, out).reshape(zs.shape)


def lambda_value(params: GLParams, z: float) -> float:
    """Kernel density at one z >= 0, the bits of ``lambda_values`` at z: the
    cut residue sum in Python floats, else the Hankel pass on one row."""
    z = float(z)
    if not (z > 0.0 and params.alpha < 1.0):
        return float(lambda_values(params, z))
    s, ok = _residue_sum(params, z)
    if not ok:
        plan = _plan(params, z)
        s = _hankel(params, [plan])[0] if plan is not None else 0.0
    return s if s > 0.0 else 0.0


# --------------------------------------------------------------------------
# Integration grid against lambda
# --------------------------------------------------------------------------

#: Legendre panels on (0, Y] and nodes per panel of ``_lambda_grid``
_NPANEL, _DEG = 12, 32


@lru_cache(maxsize=1)
def _legendre(deg: int):
    """Gauss-Legendre nodes and weights of degree deg on [-1, 1], read-only."""
    xl, wl = roots_legendre(deg)
    xl.flags.writeable = wl.flags.writeable = False
    return xl, wl


def _chernoff_log_tail(params: GLParams):
    """log P(Y > y) bound from the integer moments, a callable of y > 1."""
    ks = np.arange(1.0, 121.0)
    lg0 = gammaln(params.alpha * params.beta + 1.0)
    lmom = gammaln(ks + 1.0) + lg0 - gammaln(params.alpha * ks
                                             + params.alpha * params.beta + 1.0)

    def bound(y):
        return np.min(lmom - ks * np.log(np.asarray(y, dtype=float))[..., None], axis=-1)

    return bound


def _first_past(bound, cap: float, log_target: float, step: float) -> float:
    """First y of 2, 2 step, 2 step^2, ... with y >= cap or bound(y) below
    log_target (the products of y *= step, rounded as that loop rounds)."""
    ys = np.cumprod(np.r_[2.0, np.full(64, step)])
    return float(ys[np.argmax((ys >= cap) | (bound(ys) < log_target))])


@lru_cache(maxsize=32)
def _lambda_grid(params: GLParams):
    """Composite Legendre nodes on (0, Y] with cached kernel values, from
    one ``lambda_values`` call, read-only.

    Nodes whose Chernoff bound puts the density below 1e-30 are skipped;
    they are irrelevant at the 1e-9 quadrature tolerances used here.
    """
    bound = _chernoff_log_tail(params)
    Y = _first_past(bound, 400.0, -60.0, 1.2)       # P(Y > y) below e^-60
    xl, wl = _legendre(_DEG)
    # bulk panels cover the mass; a single panel spans the expensive far tail
    T = min(_first_past(bound, Y, -23.0, 1.15), 0.98 * Y)
    edges = np.concatenate([[0.0], np.geomspace(Y / 256.0, T, _NPANEL - 1), [Y]])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * xl + 0.5 * (hi + lo)).ravel()
    wts = (0.5 * (hi - lo) * wl).ravel()
    skip = nodes > 2.0
    skip[skip] = bound(0.85 * nodes[skip]) - np.log(nodes[skip]) < math.log(1e-30)
    lam = np.zeros_like(nodes)
    lam[~skip] = lambda_values(params, nodes[~skip])
    for a in (nodes, wts, lam):         # one grid is shared by every caller
        a.flags.writeable = False
    return nodes, wts, lam, Y


def markov_lambda_apply(params: GLParams, f, x: float) -> float:
    """Markov image (Lf)(x) = int f(x y) lambda(y) dy.

    Uses the multiplier shortcut for generalized polynomials carrying a
    ``powers`` expansion; otherwise quadrature against the cached kernel
    grid.  At alpha = 1 the operator degenerates: the identity for beta = 0,
    a beta-type averaging kernel for beta > 0.  The quadrature routes call
    f once on the array of all x * node values, and once per node only when
    f does not accept an array (``core.eval_on``).
    """
    if x <= 0.0:
        raise DomainError("markov operator acts on functions of x > 0")
    powers = getattr(f, "powers", None)
    if powers is not None:
        try:                                        # past the double range, or inf - inf
            out = math.fsum(c * mellin_lambda(params, p).real * real_pow(x, p)
                            for c, p in powers)
        except (OverflowError, ValueError):
            out = math.inf
        if not math.isfinite(out):
            raise DomainError(f"the Markov image at x = {x} leaves the double range")
        return out
    if params.alpha == 1.0:
        if params.beta == 0.0:
            return float(f(x))
        b = params.beta
        t, w = roots_jacobi(80, b - 1.0, 0.0)
        yv = 0.5 * (t + 1.0)
        return float(b * 2.0 ** (-b) * np.sum(w * eval_on(f, x * yv)))
    nodes, wts, lam, _ = _lambda_grid(params)
    return float(np.sum(wts * lam * eval_on(f, x * nodes)))


def markov_lambda_adjoint_apply(params: GLParams, f, x: float) -> float:
    """Adjoint image (L* f)(x) computed from

        e_ref(x) L* f(x) = int f(x/w) e(x/w) lambda(w) dw / w,

    where e is the invariant density and e_ref the unit-mean exponential
    density; the adjoint maps L2(e) into L2(e_ref).
    """
    if x <= 0.0:
        raise DomainError("adjoint acts on functions of x > 0")
    if params.alpha == 1.0:
        if params.beta == 0.0:
            return float(f(x))
        raise DomainError("adjoint at alpha = 1 implemented for beta = 0 only")
    nodes, wts, lam, _ = _lambda_grid(params)
    acc = 0.0
    for wnode, wq, lv in zip(nodes, wts, lam):
        wn = float(wnode)
        if lv == 0.0 or wn == 0.0:
            continue
        z = x / wn
        ez = weight_eval(params, z)
        if ez == 0.0:
            continue
        acc += wq * f(z) * ez * lv / wn
    return acc / math.exp(-x)

