"""Parameter validation, derived constants, and shared types.

Every other module builds on the validated parameter pair ``(alpha, beta)``
with ``alpha in (0, 1]`` and ``beta >= 1 - 1/alpha``.  Derived constants are
computed once at construction and frozen; ``derived_constants`` re-derives
them from scratch so tests can assert agreement to the last ulp.

``coeff_table`` holds the package's one coefficient cache: a table per
(family, params), where the family is P_n (eigen) or R_n (coeigen).  R_n's
rows are exact Python integers, grown in n and never rebuilt.
``coeff_faces`` gives what a family forms and holds in its table (P_n's
g_k row of integer mantissas, float64 and double-double rows, signed
binomials), dropped with the table.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, is_dataclass
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
#: sum leaves float64 for the higher tiers of ``specfun._escalating_horner``
COND_THRESHOLD = 1.0e8

#: hard cap on escalated working precision, in decimal digits (the exact
#: Horner tier's inputs included)
MAX_ESCALATED_DPS = 1200


@dataclass(frozen=True)
class Precision:
    """Evaluation precision: plain binary64 or software extended precision.

    Extended precision sums P_n, R_n and W_n^(q) on Python integers from
    inputs of no fewer than ``mantissa_bits`` bits.  Inner products against
    R_n come from its Rodrigues identity at every precision (float64 in
    ``semigroup.expand``, exact in ``quad.r_norm``); ``quad.gram_biorth``
    takes its bits from the magnitude of its exact terms, ``mantissa_bits``
    only a floor; the kernel density lambda is float64 at every precision.
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
        if s.startswith("ext") and s[3:].isdecimal():
            return Precision("extended", int(s[3:]))
    raise DomainError(f"cannot parse precision spec {spec!r}")


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
        # every table and cache lookup hashes the pair: once, from the
        # fields that determine all the others
        object.__setattr__(self, "_hash", hash((a, b, self.precision, self.eps)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt in the unpickling process, whose string hashes differ
        return GLParams, (self.alpha, self.beta, self.precision, self.eps)

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


def _const_on(x, c):
    """c at x: c itself, or for an ndarray x a float array of its shape,
    so that ``eval_on`` takes one call."""
    return np.full(x.shape, c, dtype=float) if isinstance(x, np.ndarray) else c


def const_fn(c: float = 1.0) -> RealFn:
    return RealFn(lambda x: _const_on(x, c), d1=lambda x: _const_on(x, 0.0),
                  d2=lambda x: _const_on(x, 0.0), description=f"constant {c}",
                  powers=((c, 0.0),))


def monomial(k: float) -> RealFn:
    """p_k(x) = x**k as a RealFn with exact derivatives."""
    kk = float(k)
    return RealFn(
        lambda x: x ** kk,
        d1=lambda x: kk * x ** (kk - 1.0) if kk != 0.0 else _const_on(x, 0.0),
        d2=lambda x: (kk * (kk - 1.0) * x ** (kk - 2.0) if kk not in (0.0, 1.0)
                      else _const_on(x, 0.0)),
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
# mpmath working precision and coefficient tables
# --------------------------------------------------------------------------

def mp_ctx(dps: int):
    """Context manager setting mpmath working precision (decimal digits)."""
    if dps > MAX_ESCALATED_DPS:
        raise PrecisionError(f"requested {dps} digits exceeds cap {MAX_ESCALATED_DPS}")
    return mp.workdps(dps)


#: (family, params) pairs whose coefficient table is held; a caller that
#: sweeps (alpha, beta) leaves tables no later call uses, so the least
#: recently used are dropped
TABLES_HELD = 16

#: bytes of rows and faces held past which the least recently used tables
#: are dropped (exact R_n rows of an irrational pair take about 40 MB to
#: order 200)
TABLE_BYTES_HELD = 64 << 20

_tables: "OrderedDict[tuple, _Table]" = OrderedDict()


class _Table(dict):
    """Rows 0..N of a coefficient family, exact and never rebuilt, and as
    its items the faces formed from them; size is the bytes of both.
    Storing a face counts its bytes (``_nbytes``; a face that holds a row,
    W_n's at q = 0, counts it again) and may drop others."""

    def __init__(self):
        super().__init__()
        self.rows, self.size = [], 0

    def __setitem__(self, key, value):
        added = _nbytes(value) - (_nbytes(self[key]) if key in self else 0)
        self.size += added
        super().__setitem__(key, value)
        _evict(self, added)


def _nbytes(obj) -> int:
    """Bytes a row or face holds: an ndarray's elements, a list of Python
    ints with theirs (28 bytes each and 4 per 30 bits), a tuple with its
    parts, a dataclass's arrays, or one number."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, list):
        return sys.getsizeof(obj) + 28 * len(obj) + 2 * sum(map(int.bit_length, obj)) // 15
    if isinstance(obj, tuple):
        return sys.getsizeof(obj) + sum(map(_nbytes, obj))
    if is_dataclass(obj):
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    return sys.getsizeof(obj)


#: at least the bytes all tables hold: their last count plus those added since
_held_at_most = 0


def _evict(table: _Table, added: int) -> None:
    """Count ``added`` bytes; once all tables may hold more than
    TABLE_BYTES_HELD, count them and drop the least recently used but
    ``table`` while they do."""
    global _held_at_most
    _held_at_most += added
    if _held_at_most <= TABLE_BYTES_HELD:
        return
    held = sum(t.size for t in _tables.values())
    for key in list(_tables):
        if held <= TABLE_BYTES_HELD:
            break
        if _tables[key] is not table:
            held -= _tables.pop(key).size
    _held_at_most = held


def coeff_faces(family: str, params: GLParams) -> _Table:
    """The (family, params) table, made empty if it is not held, and marked
    most recently used: a dict of what the family's module forms and holds
    (rows, rounded or exact), counting each item's bytes as it is stored."""
    key = (family, params)
    table = _tables.pop(key, None)
    _tables[key] = _Table() if table is None else table
    if len(_tables) > TABLES_HELD:
        _tables.popitem(last=False)
    return _tables[key]


def coeff_table(family: str, extend, params: GLParams, n: int) -> _Table:
    """The package's one coefficient cache: the table of ``family`` at
    params, with rows 0..(at least) n, which ``extend(rows, params, n)``
    appends (rows len(rows)..n), so a table grows in n and its rows are
    never rebuilt.  After a table grows, the least recently used others are
    dropped while all rows and faces take more than TABLE_BYTES_HELD.
    Tables are keyed by the family name, so a wrapped ``extend`` finds the
    same table."""
    if n < 0:
        raise DomainError("order must be >= 0")
    table = coeff_faces(family, params)
    if len(table.rows) <= n:
        built = len(table.rows)
        extend(table.rows, params, n)
        added = sum(map(_nbytes, table.rows[built:]))
        table.size += added
        _evict(table, added)
    return table

