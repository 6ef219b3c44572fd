"""Invariant density, auxiliary weights, the multiplicative kernel density,
Mellin multipliers, and the Markov operator with its adjoint.

The invariant density is

    e(x) = x**(beta + 1/alpha - 1) * exp(-x**(1/alpha)) / (alpha * Gamma(alpha*beta + 1))

normalised to unit mass, so that its Mellin moments are
Gamma(alpha*s + alpha*beta + 1) / Gamma(alpha*beta + 1) and the multiplier
factorisation M_lambda(s) * M_e(s) = Gamma(s + 1) holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np
from scipy.special import gammaln, roots_jacobi, roots_legendre

from .core import (LOG_DOUBLE_MAX, ContourError, DomainError, GLParams,
                   eval_on, mp_ctx, real_pow)
from .specfun import (SeriesResult, gamma_series, gamma_sign, log_abs_gamma,
                      log_gamma, rgamma_c)

__all__ = [
    "Weight", "weight_e_ab", "weight_e_bar", "weight_classical", "weight_eval",
    "log_weight_eval",
    "moment", "moment_s", "mellin_e", "mellin_lambda", "lambda_density",
    "lambda_value", "markov_lambda_apply", "markov_lambda_adjoint_apply",
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

def lambda_density(params: GLParams, z: float) -> SeriesResult:
    """Entire-series value of the kernel density at z >= 0.

    Residues of the inverse Mellin integral at the left poles give

        lambda(z) = Gamma(a b + 1) * sum_k (-1)^k z^k / (Gamma(bb - a k) k!)

    with bb = a b + 1 - a; reciprocal gammas keep every term finite.  The
    value at 0 is Gamma(a b + 1)/Gamma(bb).  For alpha = 1 the kernel
    degenerates to a point mass and callers must dispatch; the boundary
    bb = 0 is rejected for the same reason.
    """
    a = params.alpha
    bb = params.bar_beta_alpha
    if a >= 1.0:
        raise DomainError("alpha = 1: kernel is a point mass, no density")
    if bb <= 0.0:
        raise DomainError("boundary beta = 1 - 1/alpha: series form degenerates")
    if z < 0.0:
        raise DomainError("density argument must be >= 0")
    return gamma_series(params, _lambda_spec(z), note="lambda_density")


def _lambda_spec(z: float):
    """gamma_series spec of the residue series of lambda at z."""
    def spec(a, b, ops):
        ab1 = a * b + 1
        return ops.lgamma(ab1), -ops.num(z), (), ((-a, ab1 - a),)
    return spec


def lambda_density_sine_form(params: GLParams, z: float, terms: int = 400) -> float:
    """Cross-check form with explicit sine factors; away from degenerate
    parameters only (individual factors blow up when a(b-1) nears an integer)."""
    a, b = params.alpha, params.beta
    if z < 0.0:
        raise DomainError("density argument must be >= 0")
    acc = 0.0
    lg0 = gammaln(a * b + 1.0)
    for k in range(terms):
        arg = a * k + a * (1.0 - b)
        s = math.sin(a * (k + 1.0 - b) * math.pi) * (-1.0) ** k
        if s == 0.0:
            continue
        klz = k * math.log(z) if z > 0.0 else (0.0 if k == 0 else None)
        if klz is None:
            continue
        if arg > 0.0:
            acc += (s / math.pi) * math.exp(lg0 + gammaln(arg) - gammaln(k + 1.0) + klz)
        elif arg != round(arg):
            acc += (s / math.pi) * gamma_sign(arg) * math.exp(
                lg0 + log_abs_gamma(arg) - gammaln(k + 1.0) + klz)
    return acc


def lambda_mellin_value(params: GLParams, z: float) -> float:
    """Kernel density by Mellin-Barnes inversion on a saddle-point contour.

    The abscissa minimises z^{-a} Gamma(a) / Gamma(alpha a + bb), which keeps
    the trapezoid integrand at the same scale as the result, so plain float64
    suffices even deep in the tail where the series cancels catastrophically.
    The integrand is divided by its value at the saddle, and that log added
    back at the end: the decay test is then relative, and a lambda below
    the double range comes back correctly rounded, as 0.0.
    """
    from scipy.special import digamma, loggamma as sp_cloggamma
    a_, b_ = params.alpha, params.beta
    bb = params.bar_beta_alpha
    if a_ >= 1.0:
        raise DomainError("alpha = 1: kernel is a point mass, no density")
    if z <= 0.0:
        return lambda_density(params, z).value.real
    lz = math.log(z)

    def slope(a):
        return -lz + digamma(a) - a_ * digamma(a_ * a + bb)

    lo, hi = 1e-3, 4.0
    while slope(hi) < 0.0 and hi < 1e6:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    a0 = 0.5 * (lo + hi)
    from scipy.special import polygamma
    curv = float(polygamma(1, a0) - a_ * a_ * polygamma(1, a_ * a0 + bb))
    sigma = 1.0 / math.sqrt(max(curv, 1e-12))
    h = min(0.08, 0.5 / max(1.0, lz), sigma / 6.0)
    lg0 = gammaln(a_ * b_ + 1.0)

    def log_integrand(s):
        return -s * lz + sp_cloggamma(s) + lg0 - sp_cloggamma(a_ * s + bb)

    l0 = float(log_integrand(a0).real)
    acc = 0.0
    peak = 0.0
    t0 = 0.0
    nchunk = 2048
    for _ in range(400):
        t = t0 + h * np.arange(nchunk)
        vals = np.exp(log_integrand(a0 + 1j * t) - l0)
        if t0 == 0.0:
            vals[0] *= 0.5
        acc += float(np.sum(vals.real))
        peak = max(peak, float(np.max(np.abs(vals))))
        if float(np.abs(vals[-1])) < 1e-20 * peak:
            break
        t0 += nchunk * h
    else:
        raise ContourError("kernel contour failed to decay below tolerance")
    v = acc * h / math.pi
    return math.copysign(math.exp(math.log(abs(v)) + l0), v) if v else v


def lambda_value(params: GLParams, z: float, clamp: bool = True) -> float:
    """Kernel density value; tiny negative round-off is clamped to 0.

    Series for well-conditioned arguments, saddle-contour Mellin inversion
    once float64 cancellation would exceed the conditioning threshold.
    """
    v = None
    if params.precision.is_double and params.alpha < 1.0 and z > 0.0:
        # cheap float attempt; the contour takes over when ill-conditioned
        r = gamma_series(params, _lambda_spec(z), _float_only=True)
        if r.converged and r.condition <= 1e6:
            v = r.real
    if v is None:
        if params.alpha < 1.0 and z > 2.0:
            v = lambda_mellin_value(params, z)
        else:
            v = lambda_density(params, z).value.real
    if v <= 0.0 and clamp:          # -0.0 too: a density has no signed zero
        return 0.0
    return v


# --------------------------------------------------------------------------
# Integration grid against lambda
# --------------------------------------------------------------------------

_GRID_CACHE: dict = {}


def _chernoff_log_tail(params: GLParams):
    """log P(Y > y) bound from the integer moments; returns a callable."""
    ks = np.arange(1.0, 121.0)
    lg0 = gammaln(params.alpha * params.beta + 1.0)
    lmom = gammaln(ks + 1.0) + lg0 - gammaln(params.alpha * ks
                                             + params.alpha * params.beta + 1.0)

    def bound(y: float) -> float:
        return float(np.min(lmom - ks * math.log(y))) if y > 1.0 else 0.0

    return bound


def _lambda_tail_cut(params: GLParams, log_target: float = -60.0) -> float:
    """Upper cutoff Y with P(Y > y) below exp(log_target)."""
    bound = _chernoff_log_tail(params)
    y = 2.0
    while y < 400.0 and bound(y) >= log_target:
        y *= 1.2
    return y


def _lambda_grid(params: GLParams, npanel: int = 12, deg: int = 32):
    """Composite Legendre nodes on (0, Y] with cached kernel values.

    Nodes whose Chernoff bound puts the density below 1e-30 are skipped;
    they are irrelevant at the 1e-9 quadrature tolerances used here.
    """
    key = (params, npanel, deg)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    Y = _lambda_tail_cut(params)
    bound = _chernoff_log_tail(params)
    xl, wl = roots_legendre(deg)
    # bulk panels cover the mass; a single panel spans the expensive far tail
    T = 2.0
    while T < Y and bound(T) >= -23.0:
        T *= 1.15
    T = min(T, 0.98 * Y)
    edges = np.concatenate([[0.0], np.geomspace(Y / 256.0, T, npanel - 1), [Y]])
    nodes, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (hi - lo) * xl + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wl)
    nodes = np.concatenate(nodes)
    wts = np.concatenate(wts)
    lam = np.empty_like(nodes)
    for i, t in enumerate(nodes):
        y = float(t)
        if y > 2.0 and bound(0.85 * y) - math.log(max(y, 1.0)) < math.log(1e-30):
            lam[i] = 0.0
        else:
            lam[i] = lambda_value(params, y)
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


def mellin_e_quad(params: GLParams, s, dps: int = 30) -> complex:
    """Numerical Mellin transform of the invariant density (tanh-sinh).

    Independent cross-check path for the multiplier factorisation; the
    production route is the closed gamma form ``mellin_e``.
    """
    a, b = params.alpha, params.beta
    sc = complex(s)
    with mp_ctx(dps):
        az = mp.mpf(a)
        bz = mp.mpf(b)
        norm = az * mp.gamma(az * bz + 1)
        fn = lambda u: (u ** (az * mp.mpc(sc) + az * bz)) * mp.e ** (-u) / mp.gamma(az * bz + 1)
        # substituted u = x**(1/a): integrand has pure Laguerre form
        val = mp.quad(fn, [0, mp.inf])
        return complex(val)
