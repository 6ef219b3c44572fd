"""Special-function kernel.

Complex log-gamma (Lanczos at double precision), the Gauss hypergeometric
series with its z -> 1-z connection formula, the positive-term entire
function cal_I, and ``_escalating_horner``: the finite expansions of P_n,
R_n and W_n^(q) are summed by Horner in float64 and redone in software
extended precision when the conditioning estimate sum|terms| / |sum|
exceeds COND_THRESHOLD, or when extended precision is asked for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
from scipy.special import gammaln as _sp_gammaln

from .core import (COND_THRESHOLD, LOG_DOUBLE_MAX, ConvergenceError,
                   DomainError, GLParams, NeumaierSum, PoleError, mp_ctx)

__all__ = [
    "SeriesResult", "log_gamma", "rgamma_c", "log_abs_gamma", "gamma_sign",
    "gauss_2f1", "gauss_2f1_w1", "cal_I",
]

_LOG_SQRT_2PI = 0.9189385332046727  # log sqrt(2 pi)

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_int(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _lanczos_loggamma(z: complex) -> complex:
    """Principal log-gamma for Re(z) >= 0.5."""
    zm1 = z - 1.0
    a = _LANCZOS_C[0]
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(a)


def _log_sinpi_asym(z: complex) -> complex:
    """Analytic continuation of log sin(pi z), exact to double for |Im z| >= 10.

    sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) for Im z > 0.
    """
    if z.imag > 0:
        return (-1j * cmath.pi * z + complex(-math.log(2.0), 0.5 * math.pi)
                + cmath.log(1.0 - cmath.exp(2j * cmath.pi * z)))
    return (1j * cmath.pi * z + complex(-math.log(2.0), -0.5 * math.pi)
            + cmath.log(1.0 - cmath.exp(-2j * cmath.pi * z)))


def log_gamma(z) -> complex:
    """Principal-branch complex log-gamma.

    exp(log_gamma(z)) = Gamma(z); relative accuracy ~1e-15 at double
    precision for |z| up to 1e6.  Raises PoleError at the poles.
    """
    zc = complex(z)
    if _is_nonpositive_int(zc):
        raise PoleError(f"log_gamma pole at z = {zc}")
    if zc.real >= 0.5:
        out = _lanczos_loggamma(zc)
    elif abs(zc.imag) >= 10.0:
        # reflection: log G(z) = log pi - log sin(pi z) - log G(1 - z)
        out = math.log(math.pi) - _log_sinpi_asym(zc) - _lanczos_loggamma(1.0 - zc)
    else:
        # recurrence shift keeps the principal branch near the real axis
        n = int(math.ceil(0.5 - zc.real))
        shift = 0.0 + 0.0j
        for j in range(n):
            shift += cmath.log(zc + j)
        out = _lanczos_loggamma(zc + n) - shift
    if isinstance(z, (int, float)):
        return complex(out.real, out.imag)
    return out


def rgamma_c(z) -> complex:
    """Entire reciprocal gamma 1/Gamma(z) for real or complex argument."""
    zc = complex(z)
    if _is_nonpositive_int(zc):
        return 0.0 + 0.0j
    if zc.real >= 0.5:
        return cmath.exp(-_lanczos_loggamma(zc))
    # 1/G(z) = sin(pi z) G(1 - z) / pi
    lg = _lanczos_loggamma(1.0 - zc) + _log_sinpi_asym(zc) - math.log(math.pi) \
        if abs(zc.imag) >= 10.0 else \
        _lanczos_loggamma(1.0 - zc) + cmath.log(cmath.sin(cmath.pi * zc)) - math.log(math.pi)
    if lg.real > 700.0:
        return cmath.inf
    return cmath.exp(lg)


def log_abs_gamma(x: float) -> float:
    """log |Gamma(x)| for real non-pole x of either sign."""
    if x > 0.0:
        return float(_sp_gammaln(x))
    if x == round(x):
        raise PoleError(f"gamma pole at {x}")
    return (math.log(math.pi) - math.log(abs(math.sin(math.pi * x)))
            - float(_sp_gammaln(1.0 - x)))


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real non-pole x."""
    if x > 0.0:
        return 1.0
    if x == round(x):
        raise PoleError(f"gamma pole at {x}")
    return 1.0 if math.sin(math.pi * x) > 0.0 else -1.0


# --------------------------------------------------------------------------
# Series results and the escalating Horner sum
# --------------------------------------------------------------------------

@dataclass
class SeriesResult:
    """Value of a series together with its conditioning diagnostics."""

    value: complex
    abs_term_sum: float
    terms_used: int
    converged: bool
    dps_used: int = 0            # 0 means plain float64
    note: str = ""

    @property
    def real(self) -> float:
        return self.value.real if isinstance(self.value, complex) else float(self.value)


_SERIES_CAP = 10000
_CONSECUTIVE = 3

#: largest float64 Horner condition number taken at its word: below it the
#: float64 sum keeps enough correct digits to size the escalated precision
_HORNER_TRUSTED_COND = 1.0e13


def _escalating_horner(coeffs, y: float, params: GLParams, mp_args,
                       log: bool = False):
    """sum_j coeffs[j] y^j (coeffs a float64 array) by Horner under the
    package precision policy.

    The float64 pass carries the condition number sum |c_j y^j| / |sum|;
    past COND_THRESHOLD, or at extended precision, the sum is redone at
    20 + log10(cond) digits on ``mp_args()``, which returns the mpmath
    coefficients and y at that working precision.  Where the float64
    estimate cannot be trusted (it overflowed, or cond > 1e13 left it
    without correct digits) the mpmath pass measures its own condition
    number and repeats with more digits until 17 of them are left.
    With ``log`` the result is (sign, log|sum|), finite where the sum
    leaves the double range.
    """
    p = cond = 0.0
    ay = abs(y)
    for c in coeffs[::-1].tolist():     # Python floats overflow to inf quietly
        p = p * y + c
        cond = cond * ay + abs(c)
    cond = cond / abs(p) if p != 0.0 else math.inf
    if cond <= COND_THRESHOLD and params.precision.is_double:
        return (math.copysign(1.0, p), math.log(abs(p))) if log else p
    trusted = cond <= _HORNER_TRUSTED_COND
    dps = max(params.precision.dps, (20 + int(math.log10(cond))) if trusted else 40)
    while True:
        with mp_ctx(dps):
            cs, ym = mp_args()
            acc = mag = mp.mpf(0)
            aym = abs(ym)
            for c in reversed(cs):
                acc = acc * ym + c
                if not trusted:
                    mag = mag * aym + abs(c)
            lost = 0 if trusted or acc == 0 else int(mp.log10(mag / abs(acc))) + 1
            if lost <= dps - 17:
                if not log:
                    return float(acc)
                return (-1.0 if acc < 0 else 1.0), float(mp.log(abs(acc)))
        dps = lost + 20


# --------------------------------------------------------------------------
# Gauss hypergeometric 2F1 on [0, 1)
# --------------------------------------------------------------------------

_2F1_NEAR_ONE = 1.0 - 1e-10
_2F1_SWITCH = 0.80


def _2f1_series_float(a, b, c, z, tol, cap):
    acc = NeumaierSum()
    t = 1.0
    small = 0
    used = cap
    for k in range(cap):
        acc.add(t)
        nxt = t * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        if abs(nxt) <= tol * (abs(acc.value) + 1e-300):
            small += 1
            if small >= _CONSECUTIVE:
                used = k + 1
                t = nxt
                break
        else:
            small = 0
        t = nxt
    else:
        return acc.value, acc.abs_sum, cap, False
    return acc.value, acc.abs_sum, used, True


def gauss_2f1_w1(a: float, b: float, c: float, w: float, tol: float = 1e-16,
                 max_terms: int = _SERIES_CAP) -> SeriesResult:
    """2F1(a, b; c; 1 - w) for small w > 0, by the connection formula.

    Taking w directly avoids the catastrophic 1 - z cancellation; valid for
    non-integer c - a - b (true of every instance this package uses, where
    c - a - b = -alpha).
    """
    s = c - a - b
    if abs(s - round(s)) < 1e-8:
        raise DomainError("connection formula needs non-integer c - a - b")
    if not (0.0 < w <= 0.5):
        raise DomainError("gauss_2f1_w1 expects 0 < w <= 0.5")
    g1 = (gamma_sign(s) * gamma_sign(c - a) * gamma_sign(c - b)
          * math.exp(_sp_gammaln(c) + log_abs_gamma(s)
                     - log_abs_gamma(c - a) - log_abs_gamma(c - b)))
    g2 = (gamma_sign(-s) * gamma_sign(a) * gamma_sign(b)
          * math.exp(_sp_gammaln(c) + log_abs_gamma(-s)
                     - log_abs_gamma(a) - log_abs_gamma(b)))
    v1, s1, u1, ok1 = _2f1_series_float(a, b, a + b - c + 1.0, w, tol, max_terms)
    v2, s2, u2, ok2 = _2f1_series_float(c - a, c - b, s + 1.0, w, tol, max_terms)
    if not (ok1 and ok2):
        raise ConvergenceError("2F1 connection series did not converge")
    val = g1 * v1 + w ** s * g2 * v2
    abs_sum = abs(g1) * s1 + abs(w ** s * g2) * s2
    return SeriesResult(complex(val), abs_sum, u1 + u2, True)


def gauss_2f1(a: float, b: float, c: float, z: float, tol: float = 1e-16,
              max_terms: int = _SERIES_CAP) -> SeriesResult:
    """2F1(a, b; c; z) for 0 <= z < 1 by series plus 1-z connection.

    The package's instances have c - a - b = -alpha < 0, so the function
    diverges as z -> 1; inside the guard band z > 1 - 1e-10 the (finite)
    connection value is returned flagged with a 'diverging' note.
    """
    if c <= 0.0 and c == round(c):
        raise DomainError(f"2F1 parameter c = {c} is a nonpositive integer")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"2F1 implemented for 0 <= z < 1, got {z}")
    if z == 0.0:
        return SeriesResult(1.0 + 0.0j, 1.0, 1, True)
    if z <= _2F1_SWITCH:
        val, abs_sum, used, ok = _2f1_series_float(a, b, c, z, tol, max_terms)
        if not ok:
            raise ConvergenceError("2F1 series did not converge")
        return SeriesResult(complex(val), abs_sum, used, True)

    s = c - a - b
    if abs(s - round(s)) < 1e-8:
        # integer-parameter connection needs log terms; fall back to series
        val, abs_sum, used, ok = _2f1_series_float(a, b, c, z, tol, 10 * max_terms)
        if not ok:
            raise ConvergenceError("2F1 series did not converge near z = 1")
        return SeriesResult(complex(val), abs_sum, used, True)
    out = gauss_2f1_w1(a, b, c, 1.0 - z, tol, max_terms)
    if z > _2F1_NEAR_ONE:
        return SeriesResult(out.value, out.abs_term_sum, out.terms_used,
                            False, out.dps_used, "diverging")
    return out


# --------------------------------------------------------------------------
# Entire auxiliary
# --------------------------------------------------------------------------

def cal_I(params: GLParams, z) -> SeriesResult:
    """Gamma(a b + 1) * sum_n z^n / (Gamma(a n + a b + 1) n!) for z >= 0.

    Entire of order 1/(a+1); its growth type is params.frak_t.  At z >= 0
    every term is positive, so the float64 sum is well conditioned: the
    terms come from their logs until three in a row fall below 1e-17 of the
    largest, and are added correctly rounded (math.fsum) relative to it.
    DomainError for z < 0, where the terms alternate.
    """
    z = float(z)
    if z < 0.0:
        raise DomainError("cal_I is summed for z >= 0 only")
    a, b = params.alpha, params.beta
    lg0, lz = _sp_gammaln(a * b + 1.0), math.log(z) if z > 0.0 else -math.inf
    logs, top, small = [], -math.inf, 0
    while small < _CONSECUTIVE:
        k = len(logs)
        if k == _SERIES_CAP:
            raise ConvergenceError(f"cal_I did not converge in {k} terms")
        lt = lg0 - _sp_gammaln(a * k + a * b + 1.0) - _sp_gammaln(k + 1.0) \
            + (k * lz if k else 0.0)
        logs.append(lt)
        top = max(top, lt)
        small = small + 1 if lt < top - 17.0 * math.log(10.0) else 0
    total = math.fsum(math.exp(lt - top) for lt in logs)
    value = math.exp(top) * total if top <= LOG_DOUBLE_MAX else math.inf
    return SeriesResult(complex(value), value, len(logs), True)
