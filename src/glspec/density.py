"""Invariant density, auxiliary weights, the multiplicative kernel density,
Mellin multipliers, and the Markov operator with its adjoint.

The invariant density is

    e(x) = x**(beta + 1/alpha - 1) * exp(-x**(1/alpha)) / (alpha * Gamma(alpha*beta + 1))

normalised to unit mass, so that its Mellin moments are
Gamma(alpha*s + alpha*beta + 1) / Gamma(alpha*beta + 1) and the multiplier
factorisation M_lambda(s) * M_e(s) = Gamma(s + 1) holds exactly.

The kernel density lambda (Mellin transform M_lambda) has one route at every
precision, in float64: its residue power series, summed by the package's one
float64 Horner pass (``specfun._horner_float``), and a saddle-point
Mellin-Barnes contour where that sum cancels or is not converged within its
terms.  The contour has two drivers, one per input type: ``lambda_values``
(and ``_lambda_grid`` through it) runs ``_saddle`` and ``_contour_values`` on
arrays of points, ``lambda_value`` on one float z, with numpy scalars and no
index arrays.  They share every formula (``_slope``, ``_curvature``,
``_newton``, ``_peak``, ``_pass``, ``_settled``, ``_from_sums``) and the
ContourError conditions, so a point gets the same bits from either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import (digamma, gammaln, gammasgn, loggamma, roots_jacobi,
                           roots_legendre, zeta)

from .core import (LOG_DOUBLE_MAX, ContourError, DomainError, GLParams,
                   eval_on, real_pow)
from .specfun import _horner_float, log_gamma, rgamma_c

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

#: terms of the residue series lambda(z) = sum_k c_k z^k summed at a node
_RESIDUE_TERMS = 256

#: a node keeps its residue sum s up to this condition mag / |s|, mag = sum
#: |c_k| z^k.  s is off by at most (2K u + e) mag: 2K u for Horner over K
#: terms (Higham 2002, §5.1; u = 2^-53), e for the c_k, exp'd from their
#: logs (1e-13 at worst).  1e4 keeps about 11 digits; 1e6 would allow 1e-9
_SERIES_COND = 1.0e4


@lru_cache(maxsize=32)
def _residue_row(params: GLParams):
    """c_k = Gamma(ab + 1) (-1)^k / (Gamma(bb - a k) k!), k <
    _RESIDUE_TERMS, in float64, read-only, and (k, log|c_k|) of the last
    three.  bb is rounded from its exact value (ab + 1 - a cancels near beta
    = 1 - 1/alpha, c_0 ~ bb); c_k = 0 at the poles of Gamma(bb - a k)."""
    k, a = np.arange(float(_RESIDUE_TERMS)), Fraction(params.alpha)
    w = float(a * Fraction(params.beta) + 1 - a) - params.alpha * k
    lc = gammaln(params.alpha * params.beta + 1.0) - gammaln(w) - gammaln(k + 1.0)
    c = np.where(k % 2 == 1, -1.0, 1.0) * np.nan_to_num(gammasgn(w)) * np.exp(lc)
    c.flags.writeable = False
    return c, tuple(zip(range(_RESIDUE_TERMS - 3, _RESIDUE_TERMS), lc[-3:].tolist()))


def _residue_sum(params: GLParams, z):
    """lambda at a float z > 0, or at each point of an ndarray, by its
    residue series, and whether each sum s stands: mag <= _SERIES_COND |s| <
    inf, and the row's last three terms |c_k| z^k are at most 1e-17 |s| (the
    terms' envelope Gamma(alpha k + 1 - bb) z^k / k! is log-concave in k, so
    past three terms that small it only falls)."""
    c, tail = _residue_row(params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, mag = _horner_float(c, z)
        ok = (mag <= _SERIES_COND * np.abs(s)) & (mag < math.inf)
        edge, lz = np.log(np.abs(s)) - 17.0 * math.log(10.0), np.log(z)
        for k, lck in tail:
            ok &= lck + k * lz <= edge
    return s, ok


#: Newton steps of the saddle search; nodes per trapezoid pass and the node
#: index a pass may not reach; step halvings of the contour
_NEWTON_STEPS, _PASS, _LAST_NODE, _HALVINGS = 100, 128, 1 << 20, 6

#: the array driver's first pass, in parts of 64 and 16 nodes
_PARTS = np.split(np.arange(float(_PASS)), (64, 80, 96, 112))

_NO_SADDLE = "kernel saddle search did not converge"
_NO_DECAY = "kernel contour failed to decay below tolerance"
_NO_SETTLE = "kernel contour sums did not settle under step halving"


def _slope(params: GLParams, a, lz):
    """d/da log(z^-a Gamma(a) / Gamma(alpha a + bb)): -log z + psi(a) -
    alpha psi(alpha a + bb), increasing in a."""
    al, bb = params.alpha, params.bar_beta_alpha
    return -lz + digamma(a) - al * digamma(al * a + bb)


def _curvature(params: GLParams, a):
    """The slope's derivative in a, psi'(a) - alpha^2 psi'(alpha a + bb).
    psi'(x) = zeta(2, x), the same bits as scipy's polygamma(1, x) without
    its per-call dispatch."""
    al, bb = params.alpha, params.bar_beta_alpha
    return zeta(2.0, a) - al * al * zeta(2.0, al * a + bb)


def _saddle_start(params: GLParams, lz):
    """log a of the large- or small-a asymptote's root, in [-30, 700]."""
    al = params.alpha
    u = np.maximum((lz + al * math.log(al)) / (1.0 - al), -np.log1p(np.maximum(-lz, 0.0)))
    return u.clip(-30.0, 700.0)


def _pick(c, x, y):
    """np.where(c, x, y), by a plain branch at a scalar c: a choice, not
    arithmetic, so either form gives the same bits."""
    return np.where(c, x, y) if isinstance(c, np.ndarray) else (x if c else y)


def _newton(params: GLParams, u, lz, lo, hi):
    """One Newton step in log a from u, at most 2 long, inside the bracket
    [lo, hi] that the slope's sign at u narrows (its midpoint where the step
    leaves it): (u', lo', hi', whether u' moved more than 1e-12 relative)."""
    a = np.exp(u)
    g = _slope(params, a, lz)
    lo, hi = _pick(g < 0.0, u, lo), _pick(g > 0.0, u, hi)
    un = u - (g / (a * _curvature(params, a))).clip(-2.0, 2.0)
    un = _pick((un >= lo) & (un <= hi), un, 0.5 * (lo + hi))
    return un, lo, hi, abs(un - u) > 1e-12 * np.maximum(1.0, abs(u))


def _saddle(params: GLParams, lz):
    """Real minimum a0 of z^-a Gamma(a) / Gamma(alpha a + bb) at log z, a
    float or each point of an ndarray lz, and the curvature of its log
    there.  The slope increases in a, so a0 is its root: ``_newton`` steps
    from ``_saddle_start``, bisecting in [e^-30, e^700].  a0 = inf where the
    slope is still negative at e^700 (lambda < exp(-(1 - alpha) e^700)).
    At a float the loop runs on numpy scalars, on an array over the index
    array of the points still moving."""
    if not isinstance(lz, np.ndarray):
        if _slope(params, np.exp(700.0), lz) < 0.0:
            return math.inf, _curvature(params, 1.0)
        u, lo, hi, moved = _saddle_start(params, lz), -30.0, 700.0, True
        for _ in range(_NEWTON_STEPS):
            if not moved:
                return np.exp(u), _curvature(params, np.exp(u))
            u, lo, hi, moved = _newton(params, u, lz, lo, hi)
        raise ContourError(_NO_SADDLE)
    lo, hi = np.full(lz.shape, -30.0), np.full(lz.shape, 700.0)
    beyond = _slope(params, np.exp(hi), lz) < 0.0
    u = _saddle_start(params, lz)
    live = np.flatnonzero(~beyond)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            a0 = np.where(beyond, np.inf, np.exp(u))
            return a0, _curvature(params, np.where(beyond, 1.0, a0))
        u[live], lo[live], hi[live], moved = _newton(params, u[live], lz[live], lo[live],
                                                     hi[live])
        live = live[moved]
    raise ContourError(_NO_SADDLE)


def _peak(params: GLParams, a0, lz, sigma):
    """l0 = log f(a0), the integrand's log at the saddle (-inf at a0 = inf);
    the settle tolerance, 1e-13 or the rounding of l0's parts; and whether
    lambda can lie within the double range there."""
    al, bb = params.alpha, params.bar_beta_alpha
    beyond = np.isinf(a0)
    a = _pick(beyond, 1.0, a0)
    p0, p1 = -a * lz, loggamma(a + 0j).real
    p2, p3 = gammaln(al * params.beta + 1.0), -loggamma(al * a + bb + 0j).real
    l0 = _pick(beyond, -np.inf, p0 + p1 + p2 + p3)
    mag = abs(p0) + abs(p1) + abs(p2) + abs(p3)
    tol = np.maximum(1e-13, np.finfo(float).eps * mag)
    return l0, tol, l0 + np.log(sigma + 1.0 / (1.0 - al)) >= -760.0


def _pass(params: GLParams, a0, lz, l0, h, j, run=None):
    """One trapezoid pass at the nodes j (index 0 halved, j[0] even): the
    sums of Re v, of Re v at the even nodes (the rule at step 2h) and of
    |Re v|, each added in node order, for v = f(a0 + i h j) / e^l0, and
    whether the pass's last |v| is below 1e-17.  With run, the running
    sums (S, S2, A) of earlier nodes, each sum continues from them."""
    al, bb = params.alpha, params.bar_beta_alpha
    s = a0 + 1j * (h * j)
    v = np.exp(-s * lz + loggamma(s) + gammaln(al * params.beta + 1.0)
               - loggamma(al * s + bb) - l0)
    v[..., 0] *= 0.5 if j[0] == 0 else 1.0
    sums = v.real, v.real[..., ::2], abs(v.real)
    if run is not None:
        sums = [np.concatenate([r[:, None], x], axis=-1) for r, x in zip(run, sums)]
    return (*(x.cumsum(axis=-1)[..., -1] for x in sums), abs(v[..., -1]) < 1e-17)


def _settled(S, S2, A, tol):
    """Whether the pass sums at step h agree with the rule at 2h."""
    return abs(S - 2.0 * S2) <= tol * A


def _from_sums(S, h, l0):
    """lambda = (h / pi) S e^l0 from the settled sum S, by its log."""
    v = S * h / math.pi
    with np.errstate(divide="ignore"):
        return np.copysign(np.exp(np.log(np.abs(v)) + l0), v)


def _contour_values(params: GLParams, z):
    """Kernel density at a float z > 0, or at every point of an ndarray, by
    Mellin-Barnes inversion,

        lambda(z) = (1/pi) int_0^inf Re f(t) dt,
        f(t) = z^-s Gamma(s) Gamma(ab + 1) / Gamma(alpha s + bb),  s = a0 + i t,

    on the line through the saddle a0 (``_saddle``), where f / e^l0 peaks at
    1, close to a Gaussian of width sigma = curvature^(-1/2): float64
    suffices where the series cancels.  Trapezoid rule at h = sigma/6
    (Trefethen & Weideman, SIAM Rev. 56, 2014), in passes of 128 points
    (``_pass``) until the last is below 1e-17; h is halved while the rule on
    the even points (step 2h) differs by more than 1e-13, or the rounding of
    log f, of h sum|f| (``_settled``).  0.0 where l0 puts lambda below the
    double range (``_peak``).  At a float the passes run on numpy scalars
    and give a float, on an array over the index arrays of the points not
    yet settled or decayed.  The array driver takes its first pass in the
    parts ``_PARTS``, each continuing the sums, and a point leaves at the
    first part whose last |v| is below 1e-17.  Each point gets the same bits
    either way only while the nodes it skips are below the half-ulp of the
    sums they would join.  Nothing here enforces that; it needs |v| to stay
    below 1e-17 past the first node below it, and sums of at least about
    0.25.  Both were checked, not proved: they held at every contour point
    of the seed-1 verify list's 17 intertwine grids (no later node up to
    4,095 back above 1e-17, the smallest S 7.52), and the tests compare the
    parts with the one-point driver's whole passes
    (``test_lambda_grid_is_lambda_value_bit_for_bit``, the hypothesis test
    ``test_lambda_value_is_the_array_pass_bit_for_bit``); a change to the
    contour must keep them.
    """
    lz = np.log(z)
    a0, curv = _saddle(params, lz)
    sigma = 1.0 / np.sqrt(curv)
    l0, tol, reach = _peak(params, a0, lz, sigma)
    if not isinstance(z, np.ndarray):
        if not reach:
            return 0.0
        h = sigma / 6.0
        for _ in range(_HALVINGS):
            S = S2 = A = 0.0
            j, decayed = np.arange(float(_PASS)), False
            while not decayed:
                if j[0] >= _LAST_NODE:
                    raise ContourError(_NO_DECAY)
                dS, dS2, dA, decayed = _pass(params, a0, lz, l0, h, j)
                S, S2, A, j = S + dS, S2 + dS2, A + dA, j + _PASS
            if _settled(S, S2, A, tol):
                return float(_from_sums(S, h, l0))
            h = h / 2.0
        raise ContourError(_NO_SETTLE)
    out, todo = np.zeros(z.size), np.flatnonzero(reach)
    h = sigma[todo] / 6.0
    for _ in range(_HALVINGS):
        S, S2, A = np.zeros(todo.size), np.zeros(todo.size), np.zeros(todo.size)
        live = np.arange(todo.size)
        for j in _PARTS:
            if not live.size:
                break
            i = todo[live, None]
            S[live], S2[live], A[live], decayed = _pass(params, a0[i], lz[i], l0[i],
                                                        h[live, None], j,
                                                        (S[live], S2[live], A[live]))
            live = live[~decayed]
        j = np.arange(float(_PASS), 2.0 * _PASS)
        while live.size:
            if j[0] >= _LAST_NODE:
                raise ContourError(_NO_DECAY)
            i = todo[live, None]
            dS, dS2, dA, decayed = _pass(params, a0[i], lz[i], l0[i], h[live, None], j)
            S[live] += dS
            S2[live] += dS2
            A[live] += dA
            live, j = live[~decayed], j + _PASS
        good = _settled(S, S2, A, tol[todo])
        out[todo[good]] = _from_sums(S[good], h[good], l0[todo[good]])
        todo, h = todo[~good], h[~good] / 2.0
        if not todo.size:
            return out
    raise ContourError(_NO_SETTLE)


def lambda_values(params: GLParams, z) -> np.ndarray:
    """Kernel density at every point of the array z >= 0, in float64 at
    every precision of params: Gamma(ab + 1) / Gamma(bb) at 0, else the
    residue sum where ``_residue_sum`` lets it stand, else the saddle-point
    contour.  Round-off below 0 is 0.0.  Each value depends on its own z
    only."""
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
    for c in (rest[i:i + 64] for i in range(0, rest.size, 64)):   # bounds the contour's arrays
        out[c] = _contour_values(params, flat[c])
    return np.where(out <= 0.0, 0.0, out).reshape(zs.shape)


def lambda_value(params: GLParams, z: float) -> float:
    """Kernel density at one z >= 0, the bits of ``lambda_values`` at z: the
    residue series summed in Python floats, else the contour's one-point
    driver (``_contour_values`` at a float), with no array set-up."""
    z = float(z)
    if not (z > 0.0 and params.alpha < 1.0):
        return float(lambda_values(params, z))
    s, ok = _residue_sum(params, z)
    if not ok:
        s = _contour_values(params, z)
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

