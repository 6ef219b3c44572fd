"""Invariant density, auxiliary weights, the multiplicative kernel density,
Mellin multipliers, and the Markov operator with its adjoint.

The invariant density is

    e(x) = x**(beta + 1/alpha - 1) * exp(-x**(1/alpha)) / (alpha * Gamma(alpha*beta + 1))

normalised to unit mass, so that its Mellin moments are
Gamma(alpha*s + alpha*beta + 1) / Gamma(alpha*beta + 1) and the multiplier
factorisation M_lambda(s) * M_e(s) = Gamma(s + 1) holds exactly.

The kernel density lambda (Mellin transform M_lambda) has one route at every
precision, in float64 on arrays of points: a residue series over (points x
terms), and a saddle-point Mellin-Barnes contour where that sum cancels or
does not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import (digamma, gammaln, gammasgn, loggamma, polygamma,
                           roots_jacobi, roots_legendre)

from .core import (LOG_DOUBLE_MAX, ContourError, DomainError, GLParams,
                   eval_on, real_pow)
from .specfun import _SERIES_CAP, log_gamma, rgamma_c

__all__ = [
    "Weight", "weight_e_ab", "weight_e_bar", "weight_classical", "weight_eval",
    "log_weight_eval", "lambda_values",
    "moment", "moment_s", "mellin_e", "mellin_lambda", "lambda_value",
    "markov_lambda_apply", "markov_lambda_adjoint_apply",
]


# --------------------------------------------------------------------------
# Weights
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """One of the three weights used for integration on (0, inf)."""

    kind: str                      # "e_ab" | "e_bar" | "e_classical"
    params: GLParams
    gamma_: float = 0.0            # e_bar only: 0 < gamma_ < alpha
    eta_bar: float = 1.0           # e_bar only
    cl_beta: float = 0.0           # e_classical only

    def __post_init__(self):
        if self.kind not in ("e_ab", "e_bar", "e_classical"):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if self.kind == "e_bar":
            if not (0.0 < self.gamma_ < self.params.alpha):
                raise DomainError("e_bar requires 0 < gamma < alpha")
            if self.eta_bar <= 0.0:
                raise DomainError("e_bar requires eta_bar > 0")
        if self.kind == "e_classical" and self.cl_beta < 0.0:
            raise DomainError("classical weight requires beta >= 0")

    @property
    def normalizer(self) -> float:
        if self.kind == "e_ab":
            a, b = self.params.alpha, self.params.beta
            return a * math.exp(gammaln(a * b + 1.0))
        if self.kind == "e_classical":
            return math.exp(gammaln(self.cl_beta + 1.0))
        return 1.0  # e_bar carries no normalisation


def weight_e_ab(params: GLParams) -> Weight:
    return Weight("e_ab", params)


def weight_e_bar(params: GLParams, gamma_: float, eta_bar: float = 1.0) -> Weight:
    return Weight("e_bar", params, gamma_=gamma_, eta_bar=eta_bar)


def weight_classical(params: GLParams, beta: Optional[float] = None) -> Weight:
    b = params.beta if beta is None else float(beta)
    return Weight("e_classical", params, cl_beta=b)


def log_weight_eval(w: Weight, x: float) -> float:
    """Log of the pointwise weight value; finite where the value itself
    under- or overflows.  DomainError for x <= 0."""
    if x <= 0.0:
        raise DomainError(f"weights live on (0, inf), got x = {x}")
    p = w.params
    if w.kind == "e_ab":
        a, b = p.alpha, p.beta
        return ((b + 1.0 / a - 1.0) * math.log(x) - real_pow(x, 1.0 / a)
                - math.log(w.normalizer))
    if w.kind == "e_classical":
        b = w.cl_beta
        return b * math.log(x) - x - gammaln(b + 1.0)
    a = p.alpha
    return ((p.beta + 1.0 / a - 1.0) * math.log(x)
            + w.eta_bar * real_pow(x, 1.0 / w.gamma_))


def weight_eval(w: Weight, x: float) -> float:
    """Pointwise weight value; DomainError for x <= 0.  Past the double
    range it is 0.0 (e_ab, e_classical) or inf (the growing e_bar)."""
    lw = log_weight_eval(w, x)
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
    """Real-order moment, valid for s > -(beta + 1/alpha)."""
    a, b = params.alpha, params.beta
    arg = a * s + a * b + 1.0
    if arg <= 0.0:
        raise DomainError(f"moment of order {s} diverges")
    return math.exp(gammaln(arg) - gammaln(a * b + 1.0))


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

#: a node keeps its float64 residue sum up to this condition sum|t_k| / |sum|:
#: each term carries a few ulps, so 1e6 would let errors reach 1e-9
_SERIES_COND = 1.0e4


@lru_cache(maxsize=32)
def _residue_coeffs(params: GLParams, n: int):
    """log|c_k| and sign c_k, k < n, of lambda(z) = sum_k c_k z^k, c_k =
    Gamma(ab + 1) (-1)^k / (Gamma(bb - a k) k!), with bb rounded from its
    exact value (ab + 1 - a cancels near beta = 1 - 1/alpha, c_0 ~ bb)."""
    k, a = np.arange(float(n)), Fraction(params.alpha)
    w = float(a * Fraction(params.beta) + 1 - a) - params.alpha * k
    lc = gammaln(params.alpha * params.beta + 1.0) - gammaln(w) - gammaln(k + 1.0)
    return lc, np.where(k % 2 == 1, -1.0, 1.0) * np.nan_to_num(gammasgn(w))


def _residue_sums(params: GLParams, z: np.ndarray):
    """Residue series at every z > 0 in float64, one (nodes x terms) array
    per block of terms (128 wide, doubling to 512, up to the series cap).  A
    node stops at its third consecutive term below 1e-17 of its partial sum;
    its terms are summed correctly rounded, earlier blocks carried as a pair
    (s, e).  Returns the sums and which converged with condition at most
    _SERIES_COND."""
    n = z.size
    s, e, abs_sum, ok = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, bool)
    tail = np.zeros((n, 2), bool)           # whether the last two terms were small
    live, k0, k1 = np.arange(n), 0, 128
    while live.size and k0 < _SERIES_CAP:
        lc, sign = _residue_coeffs(params, 1 << (k1 - 1).bit_length())
        with np.errstate(over="ignore", invalid="ignore"):
            t = sign[k0:k1] * np.exp(lc[k0:k1] + np.arange(k0, k1) * np.log(z[live, None]))
            part = (s[live] + e[live])[:, None] + np.cumsum(t, axis=1)
            mags = abs_sum[live, None] + np.cumsum(np.abs(t), axis=1)
        small = np.hstack([tail[live], np.abs(t) <= 1e-17 * (np.abs(part) + 1e-300)])
        run = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
        stop = run.any(axis=1)
        rows, last = np.arange(live.size), np.where(stop, run.argmax(axis=1), k1 - k0 - 1)
        abs_sum[live] = mags[rows, last]
        good = np.isfinite(part[rows, last]) & np.isfinite(abs_sum[live])
        for r in np.flatnonzero(good).tolist():
            i = live[r]
            terms = [s[i], e[i]] + t[r, :last[r] + 1].tolist()
            s[i] = math.fsum(terms)
            e[i] = 0.0 if stop[r] else math.fsum(terms + [-s[i]])
        done = live[stop & good]
        ok[done] = abs_sum[done] <= _SERIES_COND * np.abs(s[done])
        tail[live] = small[:, -2:]
        live, k0, k1 = live[~stop & good], k1, min(k1 + min(k1, 512), _SERIES_CAP)
    return s, ok


def _saddle(params: GLParams, lz: np.ndarray):
    """Real minimum a0 of z^-a Gamma(a) / Gamma(alpha a + bb) at each log z
    in lz, and the curvature of its log there.  The slope -log z + psi(a) -
    alpha psi(alpha a + bb) increases in a, so a0 is its root: Newton in
    log a from the large- or small-a asymptote, steps <= 2, bisecting in
    [e^-30, e^700].  a0 = inf where the slope is still negative at e^700
    (lambda < exp(-(1 - alpha) e^700))."""
    al, bb = params.alpha, params.bar_beta_alpha
    slope = lambda u, lzu: -lzu + digamma(np.exp(u)) - al * digamma(al * np.exp(u) + bb)
    curvature = lambda a: polygamma(1, a) - al * al * polygamma(1, al * a + bb)
    lo, hi = np.full(lz.shape, -30.0), np.full(lz.shape, 700.0)
    beyond = slope(hi, lz) < 0.0
    u = np.clip(np.maximum((lz + al * math.log(al)) / (1.0 - al),
                           -np.log1p(np.maximum(-lz, 0.0))), -30.0, 700.0)
    live = np.flatnonzero(~beyond)
    for _ in range(100):
        if not live.size:
            a0 = np.where(beyond, np.inf, np.exp(u))
            return a0, curvature(np.where(beyond, 1.0, a0))
        ul = u[live]
        g = slope(ul, lz[live])
        lo[live] = np.where(g < 0.0, ul, lo[live])
        hi[live] = np.where(g > 0.0, ul, hi[live])
        un = ul - np.clip(g / (np.exp(ul) * curvature(np.exp(ul))), -2.0, 2.0)
        u[live] = np.where((un >= lo[live]) & (un <= hi[live]), un, 0.5 * (lo[live] + hi[live]))
        live = live[np.abs(u[live] - ul) > 1e-12 * np.maximum(1.0, np.abs(ul))]
    raise ContourError("kernel saddle search did not converge")


def _contour_values(params: GLParams, z: np.ndarray) -> np.ndarray:
    """Kernel density at every z > 0 by Mellin-Barnes inversion,

        lambda(z) = (1/pi) int_0^inf Re f(t) dt,
        f(t) = z^-s Gamma(s) Gamma(ab + 1) / Gamma(alpha s + bb),  s = a0 + i t,

    on the line through the saddle a0, where f / e^l0 peaks at 1, close to
    a Gaussian of width sigma = curvature^(-1/2): float64 suffices where
    the series cancels.  Trapezoid rule at h = sigma/6 (Trefethen &
    Weideman, SIAM Rev. 56, 2014), in passes of 128 points until the last
    is below 1e-17; h is halved while the rule on the even points (step 2h)
    differs by more than 1e-13, or the rounding of log f, of h sum|f|.  0.0
    where l0 puts lambda below the double range.  Each node is independent.
    """
    al, bb = params.alpha, params.bar_beta_alpha
    lg0 = gammaln(al * params.beta + 1.0)
    lz = np.log(z)
    a0, curv = _saddle(params, lz)
    sigma, out, a = 1.0 / np.sqrt(curv), np.zeros(z.size), np.where(np.isinf(a0), 1.0, a0)
    parts = np.array([-a * lz, loggamma(a + 0j).real, np.full(z.size, lg0),
                      -loggamma(al * a + bb + 0j).real])
    l0 = np.where(np.isinf(a0), -np.inf, parts.sum(axis=0))
    tol = np.maximum(1e-13, np.finfo(float).eps * np.abs(parts).sum(axis=0))
    todo = np.flatnonzero(l0 + np.log(sigma + 1.0 / (1.0 - al)) >= -760.0)
    h = sigma[todo] / 6.0
    for _ in range(6):
        S, S2, A = np.zeros(todo.size), np.zeros(todo.size), np.zeros(todo.size)
        live, j = np.arange(todo.size), np.arange(128.0)
        while live.size:
            if j[0] >= 1 << 20:
                raise ContourError("kernel contour failed to decay below tolerance")
            i = todo[live, None]
            s = a0[i] + 1j * (h[live, None] * j)
            v = np.exp(-s * lz[i] + loggamma(s) + lg0 - loggamma(al * s + bb) - l0[i])
            v[:, 0] *= 0.5 if j[0] == 0 else 1.0
            S[live] += np.cumsum(v.real, axis=1)[:, -1]
            S2[live] += np.cumsum(v.real[:, ::2], axis=1)[:, -1]
            A[live] += np.cumsum(np.abs(v.real), axis=1)[:, -1]
            live, j = live[~(np.abs(v[:, -1]) < 1e-17)], j + 128
        good = np.abs(S - 2.0 * S2) <= tol[todo] * A
        v = S[good] * h[good] / math.pi
        with np.errstate(divide="ignore"):
            out[todo[good]] = np.copysign(np.exp(np.log(np.abs(v)) + l0[todo[good]]), v)
        todo, h = todo[~good], h[~good] / 2.0
        if not todo.size:
            return out
    raise ContourError("kernel contour sums did not settle under step halving")


def lambda_mellin_value(params: GLParams, z: float) -> float:
    """Kernel density at one z by the saddle-point contour alone."""
    if params.alpha >= 1.0 or z <= 0.0:
        return lambda_value(params, z)      # its domain errors, or z = 0
    return float(_contour_values(params, np.array([float(z)]))[0])


def lambda_values(params: GLParams, z) -> np.ndarray:
    """Kernel density at every point of the array z >= 0, in float64 at
    every precision of params: Gamma(ab + 1) / Gamma(bb) at 0, else the
    residue sum where it converged with condition <= _SERIES_COND, else the
    saddle-point contour.  Round-off below 0 is 0.0.  Each value depends on
    its own z only."""
    zs = np.asarray(z, dtype=float)
    if params.alpha >= 1.0:
        raise DomainError("alpha = 1: kernel is a point mass, no density")
    if not np.all(zs >= 0.0):
        raise DomainError("density argument must be >= 0")
    flat = zs.ravel()
    lc, sign = _residue_coeffs(params, 128)
    out = np.full(flat.shape, sign[0] * math.exp(lc[0]))
    pos = np.flatnonzero(flat > 0.0)
    for c in (pos[i:i + 64] for i in range(0, pos.size, 64)):   # bounds temporaries
        out[c], ok = _residue_sums(params, flat[c])
        if not ok.all():
            out[c[~ok]] = _contour_values(params, flat[c[~ok]])
    return np.where(out <= 0.0, 0.0, out).reshape(zs.shape)


def lambda_value(params: GLParams, z: float) -> float:
    """Kernel density at one z >= 0: the scalar face of ``lambda_values``."""
    return float(lambda_values(params, float(z)))


# --------------------------------------------------------------------------
# Integration grid against lambda
# --------------------------------------------------------------------------

_GRID_CACHE: dict = {}


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


def _lambda_grid(params: GLParams, npanel: int = 12, deg: int = 32):
    """Composite Legendre nodes on (0, Y] with cached kernel values, from
    one ``lambda_values`` call.

    Nodes whose Chernoff bound puts the density below 1e-30 are skipped;
    they are irrelevant at the 1e-9 quadrature tolerances used here.
    """
    key = (params, npanel, deg)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    bound = _chernoff_log_tail(params)
    Y = _first_past(bound, 400.0, -60.0, 1.2)       # P(Y > y) below e^-60
    xl, wl = roots_legendre(deg)
    # bulk panels cover the mass; a single panel spans the expensive far tail
    T = min(_first_past(bound, Y, -23.0, 1.15), 0.98 * Y)
    edges = np.concatenate([[0.0], np.geomspace(Y / 256.0, T, npanel - 1), [Y]])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * xl + 0.5 * (hi + lo)).ravel()
    wts = (0.5 * (hi - lo) * wl).ravel()
    skip = (nodes > 2.0) & (bound(0.85 * nodes) - np.log(nodes) < math.log(1e-30))
    lam = np.zeros_like(nodes)
    lam[~skip] = lambda_values(params, nodes[~skip])
    out = (nodes, wts, lam, Y)
    _GRID_CACHE[key] = out
    return out


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
        return float(sum(c * mellin_lambda(params, p).real * x ** p
                         for c, p in powers))
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
    w_e = weight_e_ab(params)
    nodes, wts, lam, _ = _lambda_grid(params)
    acc = 0.0
    for wnode, wq, lv in zip(nodes, wts, lam):
        wn = float(wnode)
        if lv == 0.0 or wn == 0.0:
            continue
        z = x / wn
        ez = weight_eval(w_e, z)
        if ez == 0.0:
            continue
        acc += wq * f(z) * ez * lv / wn
    return acc / math.exp(-x)

