"""Saddle-point machinery behind the co-eigenfunction bounds: the phase
function on the contour, its root map, the region constants, and empirical
verification of the uniform bounds and of the norm growth envelopes.

All checks report ratios of computed quantities to their claimed envelopes;
the underlying estimates carry unspecified constants, so callers assert
boundedness (or slow growth) of the ratios along n, never specific values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import ConvergenceError, DomainError, GLParams, asymp_constants
from .coeigen import w_eval
from .quad import r_norm

__all__ = [
    "SaddleState", "g_func", "g_func_prime", "varsigma_of_theta", "tau_star",
    "saddle_state", "kappa_bar", "H_kappa", "H_star", "H_alpha_eta",
    "bound_region_check", "norm_envelope_check",
]


# --------------------------------------------------------------------------
# Phase function and root maps
# --------------------------------------------------------------------------

def g_func(alpha: float, varsigma: float, tau: float) -> float:
    """Contour phase g(tau); g(0) = 0, global max at tau_star.

    The arctan of the second group is read as arg(1 - varsigma + i tau), so
    one formula covers both branches (it contributes the +pi step for
    varsigma >= 1; at varsigma = 1 the principal value pi/2 is the correct
    limit).
    """
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    if tau == 0.0:
        return 0.0
    sb = 1.0 - varsigma
    t2 = tau * tau
    main = 0.5 * (1.0 + alpha) * math.log1p(t2) \
        - tau * (1.0 + alpha) * math.atan(tau)
    if sb == 0.0:
        return main + tau * 0.5 * math.pi
    return main - 0.5 * sb * math.log1p(t2 / (sb * sb)) \
        + tau * math.atan2(tau, sb)


def g_func_prime(alpha: float, varsigma: float, tau: float) -> float:
    """d/dtau g: -(1+alpha) arctan(tau) + arg(1 - varsigma + i tau)."""
    return -(1.0 + alpha) * math.atan(tau) + math.atan2(tau, 1.0 - varsigma)


def varsigma_of_theta(alpha: float, theta: float) -> float:
    """Saddle location parametrised by theta in (0, pi/2); increasing, with
    range (alpha/(1+alpha), inf)."""
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError("theta must lie in (0, pi/2)")
    return math.sin(alpha * theta) / (math.sin((1.0 + alpha) * theta)
                                      * math.cos(theta))


def tau_star(alpha: float, varsigma: float, tol: float = 1e-13) -> float:
    """Unique maximiser of g; zero iff varsigma <= alpha/(1+alpha).

    Solved by bisection on the monotone theta-parametrisation; tau = tan(theta).
    """
    if varsigma <= 0.0:
        raise DomainError("varsigma must be > 0")
    if varsigma <= alpha / (1.0 + alpha):
        return 0.0
    lo, hi = 1e-12, 0.5 * math.pi - 1e-12
    if varsigma_of_theta(alpha, hi) < varsigma:
        raise ConvergenceError("saddle bisection bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if varsigma_of_theta(alpha, mid) < varsigma:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, lo):
            break
    return math.tan(0.5 * (lo + hi))


@dataclass(frozen=True)
class SaddleState:
    """Saddle data at a given varsigma."""

    varsigma: float
    tau_star: float
    theta_star: float
    kappa: float
    kappa_bar: float


def kappa_bar(alpha: float, theta: float) -> float:
    """Decreasing map from theta to the x/n^alpha scaling constant.

    Endpoint values: A_bar at 0+, B_bar at pi/(2(1+alpha)), C_bar at pi/2-.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError("theta must lie in the open interval (0, pi/2)")
    s1 = math.sin((1.0 + alpha) * theta)
    return alpha ** alpha * (s1 / math.sin(theta)) \
        * (s1 / math.sin(alpha * theta)) ** alpha


def saddle_state(alpha: float, varsigma: float) -> SaddleState:
    ts = tau_star(alpha, varsigma)
    th = math.atan(ts)
    kb = kappa_bar(alpha, th) if ts > 0.0 else (1.0 + alpha) ** (1.0 + alpha)
    return SaddleState(varsigma, ts, th, kb ** (1.0 / alpha) / alpha, kb)


# --------------------------------------------------------------------------
# Exponent functions
# --------------------------------------------------------------------------

def H_kappa(alpha: float, kappa: float, varsigma: float) -> float:
    """Pre-saddle exponent of the contour bound."""
    if kappa <= 0.0 or varsigma <= 0.0:
        raise DomainError("kappa and varsigma must be positive")
    sb = 1.0 - varsigma
    out = -(alpha * math.log(kappa) / varsigma + alpha / varsigma
            + math.log(varsigma) + alpha * math.log(varsigma) / varsigma)
    if sb != 0.0:
        out -= sb / varsigma * math.log(abs(sb))
    return out


def H_star(alpha: float, kappa: float, varsigma: float) -> float:
    """H plus the saddle correction g(tau_star)/varsigma when it is active."""
    out = H_kappa(alpha, kappa, varsigma)
    if varsigma > alpha / (1.0 + alpha):
        out += g_func(alpha, varsigma, tau_star(alpha, varsigma)) / varsigma
    return out


def H_alpha_eta(alpha: float, eta: float) -> float:
    """Large-region exponent: interior critical value when eta lies in
    [(1+alpha)^(-1/alpha), 1], endpoint value otherwise."""
    if not (0.0 < eta < 1.0):
        raise DomainError("eta must lie in (0, 1)")
    lo = (1.0 + alpha) ** (-1.0 / alpha)
    if eta >= lo:
        return -math.log(eta ** (-alpha) - 1.0)
    return eta * (1.0 + alpha) ** ((alpha + 1.0) / alpha) - (alpha + 1.0) \
        - math.log(alpha)


# --------------------------------------------------------------------------
# Region checks
# --------------------------------------------------------------------------

_REGIONS = ("fixed_x", "middle", "suboptimal", "large")


def bound_region_check(params: GLParams, n: int, region: str,
                       samples: Optional[Iterable[float]] = None,
                       eps: Optional[float] = None,
                       eta: float = 0.9, theta: float = 0.5) -> list:
    """|W_n| against the claimed envelope of the given region.

    W_n is the production value ``coeigen.w_eval``: R_n(x) e(x) from the
    cached coefficient table, in log form, so it stays accurate (and
    cheap) at the large n and x the regions sample.  Returns one report per sample
    with the computed ratio; out-of-region samples raise DomainError.
    Envelope constants with a free epsilon use the midpoint defaults
    documented in the module.
    """
    a, b = params.alpha, params.beta
    if region not in _REGIONS:
        raise DomainError(f"unknown region {region!r}")
    cons = asymp_constants(a, params.eps)
    ba = params.beta_alpha
    out = []
    if region == "fixed_x":
        eps = a / 2.0 if eps is None else eps
        if not (0.0 < eps < a):
            raise DomainError("fixed_x requires 0 < eps < alpha")
        aa = -ba / 2.0
        xs = list(samples) if samples is not None else [1.0]
        for x in xs:
            env = math.exp((1.5 - aa) * math.log(n)
                           + n * math.log(1.0 / math.sin((a - eps) * math.pi / 2.0))
                           - aa * math.log(x))
            v = abs(w_eval(params, n, x))
            out.append({"region": region, "n": n, "x": x, "value": v,
                        "envelope": env, "ratio": v / env})
        return out
    if region == "middle":
        kb = kappa_bar(a, theta)
        x = kb * n ** a
        expo = (-a * math.sin((1.0 + a) * theta) * math.cos(theta)
                / math.sin(a * theta)
                + math.log(math.sin(theta) / math.sin(a * theta)))
        env = math.exp(ba * math.log(x) + n * expo)
        v = abs(w_eval(params, n, x))
        return [{"region": region, "n": n, "x": x, "theta": theta, "value": v,
                 "envelope": env, "ratio": v / env}]
    if region == "suboptimal":
        eps = 0.5 * (cons.B_bar - cons.C_bar) if eps is None else eps
        if not (0.0 < eps < cons.B_bar - cons.C_bar):
            raise DomainError("suboptimal region needs 0 < eps < B_bar - C_bar")
        xs = (list(samples) if samples is not None
              else [0.5 * ((cons.C_bar + eps) + cons.A_bar) * n ** a])
        expo = (-math.log(a) + 0.5 * (1.0 + a) ** ((1.0 + a) / a) - 1.0 - a)
        for x in xs:
            if not ((cons.C_bar + eps) * n ** a <= x <= cons.A_bar * n ** a):
                raise DomainError(f"x = {x} outside the suboptimal region")
            env = math.exp(ba * math.log(x) - 0.5 * x ** (1.0 / a) + n * expo)
            v = abs(w_eval(params, n, x))
            out.append({"region": region, "n": n, "x": x, "value": v,
                        "envelope": env, "ratio": v / env})
        return out
    # large region
    if not (eta < 1.0):
        raise DomainError("large region requires eta < 1")
    xs = (list(samples) if samples is not None else [1.1 * cons.A_bar * n ** a])
    for x in xs:
        if x < cons.A_bar * n ** a:
            raise DomainError(f"x = {x} below the large-region boundary")
        env = (a ** -2.5) * math.exp(ba * math.log(x) - eta * x ** (1.0 / a)
                                     + n * H_alpha_eta(a, eta))
        v = abs(w_eval(params, n, x))
        out.append({"region": region, "n": n, "x": x, "value": v,
                    "envelope": env, "ratio": v / env})
    return out


def norm_envelope_check(params: GLParams, n_lo: int = 15, n_hi: int = 25,
                        gamma_: Optional[float] = None, eta_bar: float = 1.0,
                        slack_main: float = 0.1, slack_aux: float = 0.2) -> dict:
    """Norm growth against the two claimed envelopes.

    Reports log||R_n||/n (must stay below t_alpha + slack_main) and
    log(aux norm)/n^(1/(alpha+1)) (below bar_frak_t + slack_aux) over
    n in [n_lo, n_hi].
    """
    a = params.alpha
    ns = list(range(n_lo, n_hi + 1))
    main_rates, aux_rates = [], []
    for n in ns:
        nrm, aux = r_norm(params, n, gamma_=gamma_, eta_bar=eta_bar)
        main_rates.append(math.log(nrm) / n)
        aux_rates.append(math.log(aux) / n ** (1.0 / (a + 1.0)))
    main_ok = max(main_rates) <= params.t_alpha + slack_main
    aux_ok = max(aux_rates) <= params.bar_frak_t + slack_aux
    return {"ns": ns, "main_rates": main_rates, "aux_rates": aux_rates,
            "main_bound": params.t_alpha + slack_main,
            "aux_bound": params.bar_frak_t + slack_aux,
            "main_ok": main_ok, "aux_ok": aux_ok}
