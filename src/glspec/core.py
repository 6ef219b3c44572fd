"""Parameter validation, derived constants, and shared types.

Every other module builds on the validated parameter pair ``(alpha, beta)``
with ``alpha in (0, 1]`` and ``beta >= 1 - 1/alpha``.  Derived constants are
computed once at construction and frozen; ``recompute_derived`` re-derives
them from scratch so tests can assert agreement to the last ulp.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np
from scipy.special import gammaln


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class GlspecError(Exception):
    """Base class for all package errors."""


class DomainError(GlspecError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation exactly at a pole."""


class ConvergenceError(GlspecError, ArithmeticError):
    """A series or iteration failed to converge within its term cap."""


class QuadratureError(GlspecError, ArithmeticError):
    """A quadrature estimate failed its internal consistency check."""


class ContourError(GlspecError, ArithmeticError):
    """A contour integral violated its decay estimate at truncation height."""


class TruncationError(GlspecError, ArithmeticError):
    """A spectral series hit its term cap with the tail above tolerance."""


class PrecisionError(GlspecError, ArithmeticError):
    """Extended-precision escalation failed to stabilise a value."""


# --------------------------------------------------------------------------
# Precision policy
# --------------------------------------------------------------------------

#: conditioning threshold (sum |terms| / |sum terms|) beyond which a Horner
#: sum switches from float64 to software extended precision
COND_THRESHOLD = 1.0e8

#: hard cap on escalated working precision, in decimal digits
MAX_ESCALATED_DPS = 1200


@dataclass(frozen=True)
class Precision:
    """Evaluation precision: plain binary64 or software extended precision.

    Extended precision runs the Horner sums of P_n, R_n and W_n^(q), and
    the exact inner products of ``gram_biorth`` and ``r_norm``, in mpmath
    at no fewer than ``dps`` digits.  The kernel density lambda is float64
    at every precision.
    """

    kind: str = "double"          # "double" | "extended"
    mantissa_bits: int = 128

    def __post_init__(self):
        if self.kind not in ("double", "extended"):
            raise DomainError(f"unknown precision kind {self.kind!r}")
        if self.mantissa_bits < 53:
            raise DomainError("mantissa_bits must be at least 53")

    @property
    def dps(self) -> int:
        """Decimal digits corresponding to the mantissa width."""
        return max(17, int(self.mantissa_bits * 0.3010299956639812) + 2)

    @property
    def is_double(self) -> bool:
        return self.kind == "double"


DOUBLE = Precision("double")
EXT128 = Precision("extended", 128)
EXT256 = Precision("extended", 256)


def parse_precision(spec) -> Precision:
    """Accept a Precision, or one of 'double', 'ext128', 'ext256', 'extended'."""
    if isinstance(spec, Precision):
        return spec
    if isinstance(spec, str):
        s = spec.lower()
        if s == "double":
            return DOUBLE
        if s in ("extended", "ext128"):
            return EXT128
        if s == "ext256":
            return EXT256
        if s.startswith("ext"):
            return Precision("extended", int(s[3:]))
    raise DomainError(f"cannot parse precision spec {spec!r}")


# --------------------------------------------------------------------------
# Compensated summation (Kahan-Neumaier)
# --------------------------------------------------------------------------

class NeumaierSum:
    """Running compensated sum; also tracks the sum of absolute values."""

    __slots__ = ("s", "c", "abs_sum")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0
        self.abs_sum = 0.0

    def add(self, x: float) -> None:
        self.abs_sum += abs(x)
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def value(self) -> float:
        return self.s + self.c


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GLParams:
    """Validated parameter pair with derived constants.

    Derived fields:
      d_ab             Gamma(a*b + a + 1) / Gamma(a*b + 1), the drift constant
      beta_alpha       b + 1/a - 1            (>= 0)
      bar_beta_alpha   a*b + 1 - a            (>= 0)
      t_alpha          -log(2**a - 1), threshold time for the full-space
                       expansion; 0 exactly at a = 1
      frak_t           (a+1) * a**(-a/(a+1)), growth type of the entire
                       functions underlying the eigenpolynomials
      bar_frak_t       frak_t * ((a+1)/a + eps)**(1/(a+1)) for the stored eps
    """

    alpha: float
    beta: float
    precision: Precision = DOUBLE
    eps: float = 0.01
    d_ab: float = field(init=False)
    beta_alpha: float = field(init=False)
    bar_beta_alpha: float = field(init=False)
    t_alpha: float = field(init=False)
    frak_t: float = field(init=False)
    bar_frak_t: float = field(init=False)

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (0.0 < a <= 1.0) or not math.isfinite(a):
            raise DomainError(f"alpha must lie in (0, 1], got {a}")
        if not math.isfinite(b) or b < 1.0 - 1.0 / a - 1e-15:
            raise DomainError(f"beta must satisfy beta >= 1 - 1/alpha, got {b}")
        if not (0.0 < self.eps):
            raise DomainError("eps must be positive")
        d = derived_constants(a, b, self.eps)
        for k, v in d.items():
            object.__setattr__(self, k, v)

    @property
    def is_classical(self) -> bool:
        """True on the alpha = 1 limit branch (classical Laguerre)."""
        return self.alpha == 1.0


def derived_constants(alpha: float, beta: float, eps: float) -> dict:
    """Recompute every derived constant of GLParams from scratch."""
    a, b = alpha, beta
    d_ab = math.exp(gammaln(a * b + a + 1.0) - gammaln(a * b + 1.0))
    t_alpha = 0.0 if a == 1.0 else -math.log(math.expm1(a * math.log(2.0)))
    frak_t = (a + 1.0) * a ** (-a / (a + 1.0))
    return {
        "d_ab": d_ab,
        "beta_alpha": b + 1.0 / a - 1.0,
        "bar_beta_alpha": a * b + 1.0 - a,
        "t_alpha": t_alpha,
        "frak_t": frak_t,
        "bar_frak_t": frak_t * ((a + 1.0) / a + eps) ** (1.0 / (a + 1.0)),
    }


def make_params(alpha: float, beta: float, precision="double", eps: float = 0.01) -> GLParams:
    """Validate (alpha, beta) and populate the derived constants.

    Raises DomainError when alpha is outside (0, 1] or beta < 1 - 1/alpha.
    """
    return GLParams(float(alpha), float(beta), parse_precision(precision), float(eps))


def phi(params: GLParams, s) -> complex:
    """Ratio Gamma(a*s + a*b + 1) / Gamma(a*s + a*b + 1 - a).

    Defined on Re(s) > -beta - 1/alpha; equals d_ab at s = 1 and reduces
    to s + beta at alpha = 1.
    """
    a, b = params.alpha, params.beta
    sc = complex(s)
    if sc.real <= -b - 1.0 / a:
        raise DomainError(f"phi requires Re(s) > {-b - 1.0 / a}, got {sc}")
    top = a * sc + a * b + 1.0
    bot = top - a
    # 1/Gamma is entire; route through it so denominator poles yield 0.
    from .specfun import log_gamma, rgamma_c
    out = cmath.exp(log_gamma(top)) * rgamma_c(bot)
    if isinstance(s, (int, float)) and abs(out.imag) < 1e-13 * (1.0 + abs(out.real)):
        return complex(out.real, 0.0)
    return out


# --------------------------------------------------------------------------
# Function wrapper
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFn:
    """Evaluable function on (0, inf), optionally with derivatives.

    ``powers`` marks generalized polynomials f(x) = sum c_i * x**p_i, which
    lets inner products and Markov-operator images be taken exactly.
    """

    f: Callable[[float], float]
    d1: Optional[Callable[[float], float]] = None
    d2: Optional[Callable[[float], float]] = None
    description: str = ""
    powers: Optional[tuple] = None  # tuple of (coeff, exponent) pairs

    def __call__(self, x: float) -> float:
        return self.f(x)

    def deriv1(self, x: float) -> float:
        if self.d1 is not None:
            return self.d1(x)
        h = 1e-5 * max(1.0, abs(x))
        return (self.f(x + h) - self.f(x - h)) / (2.0 * h)

    def deriv2(self, x: float) -> float:
        if self.d2 is not None:
            return self.d2(x)
        h = 6e-4 * max(1.0, abs(x))
        return (self.f(x + h) - 2.0 * self.f(x) + self.f(x - h)) / (h * h)


def eval_on(f, xs: np.ndarray) -> np.ndarray:
    """f at every point of the float array xs.

    One call on the whole array where f accepts one and returns a value of
    its shape; otherwise (f written for scalars only, or constant) one call
    per point, where an error f raises for a point propagates.
    """
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except Exception:
        pass
    return np.array([float(f(float(x))) for x in xs.ravel()]).reshape(xs.shape)


#: log of the largest double; math.exp raises OverflowError beyond it
LOG_DOUBLE_MAX = 709.78


def real_pow(x: float, p: float) -> float:
    """x ** p for x > 0, +inf where the power leaves the double range (the
    float ``**`` raises OverflowError there)."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def const_fn(c: float = 1.0) -> RealFn:
    return RealFn(lambda x: c, d1=lambda x: 0.0, d2=lambda x: 0.0,
                  description=f"constant {c}", powers=((c, 0.0),))


def monomial(k: float) -> RealFn:
    """p_k(x) = x**k as a RealFn with exact derivatives."""
    kk = float(k)
    return RealFn(
        lambda x: x ** kk,
        d1=lambda x: kk * x ** (kk - 1.0) if kk != 0.0 else 0.0,
        d2=lambda x: kk * (kk - 1.0) * x ** (kk - 2.0) if kk not in (0.0, 1.0) else 0.0,
        description=f"x^{k}",
        powers=((1.0, kk),),
    )


def poly_fn(coeffs: Sequence[float], fractional_step: float = 1.0) -> RealFn:
    """Generalized polynomial sum_j coeffs[j] * x**(j*fractional_step)."""
    cs = tuple(float(c) for c in coeffs)
    st = float(fractional_step)

    def f(x):
        return sum(c * x ** (st * j) for j, c in enumerate(cs) if c != 0.0)

    def d1(x):
        return sum(c * (st * j) * x ** (st * j - 1.0) for j, c in enumerate(cs)
                   if c != 0.0 and j != 0)

    def d2(x):
        return sum(c * (st * j) * (st * j - 1.0) * x ** (st * j - 2.0)
                   for j, c in enumerate(cs) if c != 0.0 and st * j not in (0.0, 1.0))

    return RealFn(f, d1=d1, d2=d2, description="generalized polynomial",
                  powers=tuple((c, st * j) for j, c in enumerate(cs) if c != 0.0))


# --------------------------------------------------------------------------
# Saddle-region constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AsympConstants:
    """Region-boundary constants of the co-eigenfunction bounds.

    C_bar <= B_bar <= A_bar always; Bcal > C_bar for all alpha in (0,1).
    """

    alpha: float
    C_bar: float
    B_bar: float
    A_bar: float
    Bcal: float
    K_bar: float
    eps: float


def asymp_constants(alpha: float, eps: float = 0.01) -> AsympConstants:
    a = float(alpha)
    if not (0.0 < a < 1.0):
        if a == 1.0:
            # limit values: C_bar -> 0, B_bar -> 2, A_bar -> 4
            return AsympConstants(1.0, 0.0, 2.0, 4.0, _bcal(1.0),
                                  math.exp(-2.0 - eps) * 2.0, eps)
        raise DomainError("asymp_constants requires alpha in (0, 1]")
    half = 0.5 * math.pi * a
    C_bar = a ** a * math.cos(half) ** (a + 1.0) / math.sin(half) ** a
    th = math.pi / (2.0 * (1.0 + a))
    B_bar = a ** a / (math.sin(th) * math.sin(a * th) ** a)
    A_bar = (1.0 + a) ** (a + 1.0)
    K_bar = math.exp(-2.0 * a - eps) * ((1.0 + a) / a) ** a
    return AsympConstants(a, C_bar, B_bar, A_bar, _bcal(a), K_bar, eps)


def _bcal(a: float) -> float:
    return 2.0 ** a * ((a + 1.0) ** (1.0 + 1.0 / a) / 2.0 - (a + 1.0)) ** a


# --------------------------------------------------------------------------
# mpmath working-precision helper
# --------------------------------------------------------------------------

def mp_ctx(dps: int):
    """Context manager setting mpmath working precision (decimal digits)."""
    if dps > MAX_ESCALATED_DPS:
        raise PrecisionError(f"requested {dps} digits exceeds cap {MAX_ESCALATED_DPS}")
    return mp.workdps(dps)


_MP_DPS_BUCKET = 16


def dps_bucket_cache(build):
    """Cache ``build(params, n)``, an mpmath coefficient list, per (params, n,
    working precision rounded up to a multiple of 16 digits).

    Each entry is computed at the top of its bucket, so it holds at least
    the caller's precision, and every call returns a fresh list.  Repeated
    extended-precision evaluations (one per quadrature node, say) thus build
    their coefficients once.
    """
    @functools.lru_cache(maxsize=256)
    def at(params, n: int, dps: int) -> tuple:
        with mp.workdps(dps):
            return tuple(build(params, n))

    @functools.wraps(build)
    def cached(params, n: int) -> list:
        return list(at(params, n, -(-mp.mp.dps // _MP_DPS_BUCKET) * _MP_DPS_BUCKET))

    cached.cache_info = at.cache_info
    return cached
