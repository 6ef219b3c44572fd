"""Special-function kernel.

The package's complex gamma functions (``log_gamma``, ``rgamma_c``:
scipy.special's ufuncs, with PoleError at the poles), the positive-term
entire function cal_I, and its one float64 Horner pass, ``_horner_float``,
at a float or over a whole ndarray of points at once.  It sums lambda's
residue series, and the finite expansions of P_n, R_n and W_n^(q) in the
first of the three tiers of ``_escalating_horner``, which keeps each point
whose condition number mag / |sum|, mag = sum |c_j| |y|^j, is at most
COND_THRESHOLD.  A double-double pass (Dekker's error-free product) redoes
the others and keeps its value v where mag <= 1e16 |v|: its error, a few
u^2 mag in practice (u = 2^-53), is then within the float64 rounding of v.
The rest, and every point at extended precision, are summed on their own
on Python integers, from inputs known to the bits the measured cancellation
needs, and rounded once.  Where an input is rounded, the sum is a Horner
pass in floating point on integer mantissas, each step cut to a width w a
few bits past the inputs' (``_cut_horner``), whose cuts add at most
(n + 1) 2^(1 - w) mag to the inputs' rounding in the test that ends the
pass.  Where every input is exact (a W_n^(q) row, whose entries are exact,
at an exact point: y = x^2 at alpha = 1/2, or x = 1), it is one exact sum,
so exact zeros and ties stay exact.

The kernel sums take the same three tiers a chunk of orders at a time at
one point (``_Basis``): the float64 tier as one ``_horner_float`` pass over
the block of the chunk's rows, bitwise each row's own pass, and, beside the
Horner pass ``_dd_horner``, a block double-double pass, ``_dd_block``:
Dekker's error-free product of every coefficient with the point's
double-double power (``_dd_powers``) over the block's rows at once, and one
``math.fsum`` per row.  Its absolute error is
at most about (n + 5) u^2 mag ((2n + 5) u^2 mag where the point is itself
a double-double), of the order of ``_dd_horner``'s 2 n u^2 mag, and it
keeps a value under the same test.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import libmp
from scipy.special import gammaln, loggamma, rgamma

from .core import (COND_THRESHOLD, LOG_DOUBLE_MAX, MAX_ESCALATED_DPS,
                   ConvergenceError, DomainError, GLParams, PoleError,
                   PrecisionError)

__all__ = ["log_gamma", "rgamma_c", "cal_I"]


def _pole(x) -> bool:
    """x (real or complex) is a pole of Gamma: a real integer <= 0."""
    if isinstance(x, complex):
        if x.imag != 0.0:
            return False
        x = x.real
    return x <= 0.0 and x == round(x)


def log_gamma(z) -> complex:
    """Principal-branch complex log-gamma (scipy's ``loggamma``): the
    continuation of log Gamma from the positive axis by log Gamma(z + 1) =
    log Gamma(z) + log z, so exp(log_gamma(z)) = Gamma(z).  Raises PoleError
    at the poles."""
    if _pole(z):
        raise PoleError(f"log_gamma pole at z = {complex(z)}")
    return complex(loggamma(complex(z)))


def rgamma_c(z) -> complex:
    """Entire reciprocal gamma 1/Gamma(z) (scipy's ``rgamma``) for real or
    complex argument; 0 at the poles."""
    return complex(rgamma(complex(z)))


# --------------------------------------------------------------------------
# The escalating Horner sum
# --------------------------------------------------------------------------

_SERIES_CAP = 10000
_CONSECUTIVE = 3

#: largest mag / |v| at which the double-double value v is returned: its
#: absolute error, a few u^2 mag in practice (u = 2^-53; 2 n u^2 mag at
#: worst), is then within the rounding of v to float64
_DD_COND = 1.0e16

#: the exact tier returns a value once its inputs' rounding is at most
#: 2^-_EXACT_BITS of it, asks of them _GUARD_BITS past what a pass's loss
#: needs, and starts as if a lower tier with no finite v lost _DD_BITS
_EXACT_BITS, _GUARD_BITS, _DD_BITS = 60, 16, 106

#: Dekker's splitting constant 2^27 + 1: a = hi + lo exactly with
#: hi = t - (t - a), t = _SPLIT a, and hi, lo of 26 bits each
_SPLIT = 134217729.0

#: smallest |hi| of a double-double (hi, lo) whose lo is a normal float64,
#: so that hi + lo carries 106 bits
_DD_TINY = 2.0 ** -969


def _escalating_horner(coeffs, y, params: GLParams, exact_args, dd_args,
                       log: bool = False, cond_max: float = COND_THRESHOLD):
    """sum_j coeffs[j] y^j (coeffs a float64 array) by Horner under the
    package precision policy, at a float y or at every point of an ndarray
    y (the result then has y's shape).  Three tiers, over a whole array at
    once:

    1. float64: the plain pass also sums mag = sum |c_j| |y|^j, and keeps
       each point whose condition number mag / |sum| is at most
       ``cond_max`` (COND_THRESHOLD, unless a caller needs more than its
       1e-8 relative accuracy).
    2. double-double: every other point is summed again from
       ``dd_args(i)`` = ((hi, lo), (y_hi, y_lo)), the coefficients as
       double-double rows and point i (the flat index into y; 0 for a float)
       as a double-double.  Its value v is kept where mag <= 1e16 |v|
       (``_DD_COND``).
    3. exact: every other point, and every point at extended precision, is
       redone on its own by ``_horner_exact`` in Python integers from
       ``exact_args(i, bits)``, the coefficients and point i as dyadic or
       exact rationals known to the bits asked for.

    With ``log`` the result is (sign, log|sum|), finite where the sum
    leaves the double range.
    """
    if isinstance(y, np.ndarray):
        return _horner_array(coeffs, y, params, exact_args, dd_args, log, cond_max)
    p, mag = _horner_float(coeffs, y)
    cond = mag / abs(p) if p != 0.0 else math.inf
    if params.precision.is_double:
        if cond <= cond_max:
            return (math.copysign(1.0, p), math.log(abs(p))) if log else p
        (hi, lo), (y_hi, y_lo) = dd_args(0)
        p = _dd_horner(hi, lo, y_hi, y_lo)
        if mag <= _DD_COND * abs(p) < math.inf:
            return (math.copysign(1.0, p), math.log(abs(p))) if log else p
        cond = mag / abs(p) if p != 0.0 else math.inf
    return _horner_exact(cond, params, exact_args, 0, log)


def _horner_array(coeffs, y: np.ndarray, params: GLParams, exact_args, dd_args,
                  log: bool, cond_max: float):
    """``_escalating_horner`` on an ndarray y, with the same operations per
    point as the float one, so each value is bitwise that of the scalar
    call."""
    yf = y.ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p, mag = _horner_float(coeffs, yf)
        cond = np.where(p != 0.0, mag / np.abs(p), math.inf)
        if params.precision.is_double:
            redo = np.flatnonzero(~(cond <= cond_max))
            if redo.size:
                args = [dd_args(int(i)) for i in redo]
                (hi, lo), _ = args[0]
                y_hi, y_lo = np.array([a[1] for a in args]).T
                v = _dd_horner(hi, lo, y_hi, y_lo)
                av = np.abs(v)
                kept = (mag[redo] <= _DD_COND * av) & (av < math.inf)
                p[redo[kept]] = v[kept]
                redo = redo[~kept]
                cond[redo] = np.where(v[~kept] != 0.0, mag[redo] / av[~kept], math.inf)
        else:
            redo = np.arange(yf.size)
        out = [np.copysign(1.0, p), np.log(np.abs(p))] if log else [p]
    for i in redo:
        v = _horner_exact(float(cond[i]), params, exact_args, int(i), log)
        for o, vo in zip(out, v if log else (v,)):
            o[i] = vo
    out = [o.reshape(y.shape) for o in out]
    return tuple(out) if log else out[0]


def _horner_float(coeffs, y) -> tuple:
    """(sum_j c_j y^j, mag = sum_j |c_j| |y|^j) by Horner in float64, at a
    float y or elementwise over an ndarray y, by the same operations, so to
    the same bits.  A 2-D coeffs is a block of m rows, zero past each row's
    degree, row i summed at y[i] (an array of m points), column by column,
    the rows and their absolute values as one vector of 2m: a leading zero
    leaves p = mag = 0, so each row gets the bits of its own pass.  Floats
    overflow to inf quietly; arrays under errstate."""
    if coeffs.ndim == 2:
        m = coeffs.shape[0]
        acc, ys = np.zeros(2 * m), np.concatenate([y, np.abs(y)])
        for c in np.concatenate([coeffs, np.abs(coeffs)]).T[::-1].copy():
            acc *= ys
            acc += c
        return acc[:m], acc[m:]
    p = mag = 0.0
    ay = abs(y)
    for c in coeffs[::-1].tolist():
        p = p * y + c
        mag = mag * ay + abs(c)
    return p, mag


def _dd_horner(hi, lo, y, y_lo):
    """sum_j (hi_j + lo_j) (y + y_lo)^j by Horner in double-double
    arithmetic, rounded to float64, at a float y or elementwise over ndarrays
    y, y_lo (the same operations either way).

    Each step forms p (y + y_lo) by ``_dd_mul`` and adds c, the leading
    parts exactly by Knuth's TwoSum, the tails in float64.  The absolute
    error is at most about 2 n u^2 sum |c_j| |y|^j, u = 2^-53 (Graillat,
    Langlois & Louvet, 2005, for the compensated analogue).
    """
    ph, pl = 0.0, 0.0
    for ch, cl in zip(hi[::-1].tolist(), lo[::-1].tolist()):
        m, e = _dd_mul(ph, pl, y, y_lo)
        s = m + ch
        z = s - m
        e += ((m - (s - z)) + (ch - z)) + cl
        ph = s + e
        pl = e - (ph - s)
    return ph + pl


def _dd_mul(ah, al, bh, bl) -> tuple:
    """(ah + al)(bh + bl) as a double-double (hi, lo), elementwise: the
    product of the leading parts exactly by Dekker's TwoProduct (Numer.
    Math. 18, 1971), the cross terms in float64."""
    m = ah * bh
    t = _SPLIT * ah
    aa = t - (t - ah)
    ab = ah - aa
    t = _SPLIT * bh
    ba = t - (t - bh)
    bb = bh - ba
    e = ((aa * ba - m) + aa * bb + ab * ba) + ab * bb + (ah * bl + al * bh)
    hi = m + e
    return hi, e - (hi - m)


def _dd_powers(y: float, y_lo: float, hi: list, lo: list, K: int) -> None:
    """Extend the double-double powers hi[k] + lo[k] = (y + y_lo)^k to
    k = K, one ``_dd_mul`` step (inlined, with y split once) per power in
    Python floats: a numpy pass per step costs more than the step itself.
    Each step adds a relative error of about u^2 (2 u^2 where y_lo != 0),
    u = 2^-53."""
    t = _SPLIT * y
    ya = t - (t - y)
    yb = y - ya
    ph, pl = hi[-1], lo[-1]
    for _ in range(len(hi), K + 1):
        m = ph * y
        t = _SPLIT * ph
        aa = t - (t - ph)
        ab = ph - aa
        e = ((aa * ya - m) + aa * yb + ab * ya) + ab * yb + (ph * y_lo + pl * y)
        ph = m + e
        pl = e - (ph - m)
        hi.append(ph)
        lo.append(pl)


def _dd_block(rows: list, y_hi, y_lo) -> list:
    """sum_k (hi_k + lo_k) (y_hi[k] + y_lo[k]) for each double-double row
    (hi, lo) of ``rows``, given the point's double-double powers: the rows
    laid end to end, every product as a double-double by one ``_dd_mul``
    over them all, then one ``math.fsum`` per row, which adds its 2K parts
    exactly and rounds once (Ogita, Rump & Oishi 2005).

    Relative to |c_k| |y|^k, each product carries the rounding of its row
    (at most 3 u^2), of its power (``_dd_powers``: k u^2, 2k u^2 where the
    point is itself a double-double) and of its cross terms (2 u^2), and
    fsum adds none.  So the absolute error is at most about (n + 5) u^2
    mag, mag = sum |c_k| |y|^k, or (2n + 5) u^2 mag, the order of
    ``_dd_horner``'s bound.  A row whose parts meet inf or NaN, or overflow
    as they are added, is NaN, so the keep test of the second tier passes
    it on."""
    his, los = zip(*rows)
    with np.errstate(over="ignore", invalid="ignore"):
        m, e = _dd_mul(np.concatenate(his), np.concatenate(los),
                       np.concatenate([y_hi[:h.size] for h in his]),
                       np.concatenate([y_lo[:h.size] for h in his]))
    m, e = m.tolist(), e.tolist()
    out, k = [], 0
    for h in his:
        try:
            out.append(math.fsum(m[k:k + h.size] + e[k:k + h.size]))
        except (OverflowError, ValueError):     # inf - inf, or past the double range
            out.append(math.nan)
        k += h.size
    return out


class _Basis:
    """The finite sums s_n = sum_k c_{n,k} y^k of one family of rows at one
    point y, a chunk of orders at a time, under the precision policy of
    ``_escalating_horner``.

    Its first tier, for orders lo..hi at once, is ``_basis_values``: one
    ``_horner_float`` pass over the block of the chunk's float64 rows,
    ``rows(lo, hi)`` (zero past each row's degree), so each order's sum,
    mag and keep test (cond = mag / |s_n| at most COND_THRESHOLD) are
    bitwise those of ``_escalating_horner`` on its own row.  The orders not
    kept are NaN.

    ``escalate(n)`` gives such an order of the last chunk by the other two
    tiers.  The first call at or past an order runs the block double-double
    pass (``_dd_block``) over every order of the chunk from there on that
    the first tier did not keep, at once: their rows ``dd_rows(orders)``
    against the powers of the double-double point ``dd_point()``, formed
    once per basis and grown with the degree.  Its value is kept where
    mag <= _DD_COND |v|; else ``_horner_exact`` redoes the order alone from
    ``exact_args(n)``.  A caller that escalates only the orders it reaches
    thus runs the exact tier on no order past its truncation.  With ``log``
    ``escalate`` gives (sign, log|s_n|).
    """

    def __init__(self, params: GLParams, y: float, rows, dd_point, dd_rows,
                 exact_args, log: bool = False):
        self.params, self.y, self.rows = params, y, rows
        self.dd_point, self.dd_rows, self.exact_args, self.log = dd_point, dd_rows, exact_args, log
        self.dd_pw = ([1.0], [0.0], np.ones(1), np.zeros(1))
        self.lo, self.s, self.mag, self.kept, self.dd = 0, None, None, None, {}

    def _take(self, lo: int, s: np.ndarray, mag: np.ndarray) -> np.ndarray:
        """Hold the first tier's sums s and mags of orders lo.. for
        ``escalate``; the kept sums, NaN elsewhere."""
        with np.errstate(invalid="ignore", divide="ignore"):
            kept = np.where(s != 0.0, mag / np.abs(s), math.inf) <= COND_THRESHOLD
        self.lo, self.s, self.mag, self.kept, self.dd = lo, s, mag, kept, {}
        if not self.params.precision.is_double:
            return np.full(s.shape, math.nan)
        return np.where(kept, s, math.nan)

    def escalate(self, n: int):
        i = n - self.lo
        s, mag = float(self.s[i]), float(self.mag[i])
        if self.params.precision.is_double:
            if i not in self.dd:
                self._dd_pass(i)
            s = self.dd[i]
            if mag <= _DD_COND * abs(s) < math.inf:
                return (math.copysign(1.0, s), math.log(abs(s))) if self.log else s
        cond = mag / abs(s) if s != 0.0 else math.inf
        return _horner_exact(cond, self.params, self.exact_args(n), 0, self.log)

    def _dd_pass(self, i: int) -> None:
        """The double-double tier for the orders of the last chunk from index
        i on that the first tier did not keep, as one block."""
        idx = np.flatnonzero(~self.kept[i:]) + i
        rows = self.dd_rows((idx + self.lo).tolist())
        K = max(h.size for h, _ in rows)
        ph, pl, ph_a, pl_a = self.dd_pw
        if ph_a.size < K:
            _dd_powers(*self.dd_point(), ph, pl, K - 1)
            self.dd_pw = ph, pl, ph_a, pl_a = ph, pl, np.array(ph), np.array(pl)
        self.dd.update(zip(idx.tolist(), _dd_block(rows, ph_a, pl_a)))


def _basis_values(spans) -> list:
    """The first tier of several bases in one pass: for each (basis, lo,
    hi) of spans, the sums of orders lo..hi, NaN where not kept (None for a
    basis of None), from one ``_horner_float`` pass over the rows of all of
    them stacked, each at its basis's point."""
    live = [sp for sp in spans if sp[0] is not None]
    blocks = [b.rows(lo, hi) for b, lo, hi in live]
    m = [B.shape[0] for B in blocks]
    C = np.zeros((sum(m), max((B.shape[1] for B in blocks), default=0)))
    i = 0
    for B in blocks:
        C[i:i + B.shape[0], :B.shape[1]] = B
        i += B.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        s, mag = _horner_float(C, np.repeat([b.y for b, _, _ in live], m))
    out = []
    for (b, lo, _), k in zip(live, m):
        out.append(b._take(lo, s[:k], mag[:k]))
        s, mag = s[k:], mag[k:]
    out = iter(out)
    return [None if b is None else next(out) for b, _, _ in spans]


def _dd_ratio(nums, den: int) -> tuple:
    """The exact rationals c = num / den (Python ints, den > 0) as read-only
    double-double rows (hi, lo), each part correctly rounded by Python's
    integer true division: hi = fl(c), lo = fl(c - hi).  lo is NaN where c
    is nonzero but hi + lo cannot carry it to 2^-106 (|c| below 2^-969, or
    past the double range), so that the second tier of
    ``_escalating_horner`` passes such a row on to the exact tier."""
    hi, lo = [], []
    for num in nums:
        h = _div(num, den)
        if _DD_TINY <= abs(h) < math.inf:
            p, q = h.as_integer_ratio()
            lo.append((num * q - p * den) / (den * q))
        else:
            lo.append(0.0 if not num else math.nan)
        hi.append(h)
    out = np.array(hi), np.array(lo)
    for a in out:
        a.flags.writeable = False
    return out


def _horner_exact(cond: float, params: GLParams, exact_args, i: int, log: bool):
    """Point i of ``_escalating_horner`` summed on Python integers, given
    mag / |v| from a lower tier (inf or NaN where it had no v).

    ``exact_args(i, bits)`` gives (nums, den, c_bits, Y, D, y_bits): the
    coefficients nums[j] / den and the point Y / D, D = 2^s, known to a
    relative 2^-c_bits and 2^-y_bits (None: exact).  Where every input is
    exact, a pass is one exact sum, acc = den 2^(s n) sum, and it ends
    there.  Else it is the cut Horner pass of ``_cut_horner`` at the width
    w of ``_cut_width``, which gives acc and a bound mag on sum |c_j| |y|^j;
    its cuts move acc by at most (n + 1) 2^(1 - w) mag.  The pass ends where
    that and the inputs' rounding, (2^-c_bits + n 2^-y_bits) mag, are
    together at most 2^-60 |sum|.  The value is then one correctly rounded
    division, or with ``log`` one 80-bit mpmath log.  Else the next pass
    asks for the bits the measured mag / |sum| needs, twice the inputs'
    where no bit of the sum was known, or twice its own where it already
    had what that loss needs.  The first asks for those cond needs, at
    least ``mantissa_bits`` at extended precision; PrecisionError past
    MAX_ESCALATED_DPS digits.
    """
    bits = _EXACT_BITS + _GUARD_BITS + (
        math.ceil(math.log2(max(cond, 1.0))) if cond < math.inf else _DD_BITS)
    if not params.precision.is_double:
        bits = max(bits, params.precision.mantissa_bits)
    while True:
        if libmp.prec_to_dps(bits) > MAX_ESCALATED_DPS:
            raise PrecisionError(f"Horner sum needs {bits} bits, past the cap of "
                                 f"{MAX_ESCALATED_DPS} digits")
        nums, den, c_bits, Y, D, y_bits = exact_args(i, bits)
        s, nb = D.bit_length() - 1, len(nums).bit_length()
        known = min(c_bits or math.inf, (y_bits or math.inf) - nb) - 1
        if known == math.inf:
            acc = 0
            for k, c in enumerate(reversed(nums)):
                acc = acc * Y + (c << s * k)
            e = -s * (len(nums) - 1)
            break
        w = _cut_width(known, nb)
        acc, mag, e = _cut_horner(nums, Y, s, w)
        # 2^(known + w) times the bound on the error: the inputs' rounding,
        # 2^-known mag, and the cuts', (n + 1) 2^(1 - w) mag
        err = (mag << w) + (len(nums) * mag << known + 1)
        if err << _EXACT_BITS <= abs(acc) << known + w:
            break
        need = _EXACT_BITS + _GUARD_BITS + nb + (
            mag.bit_length() - abs(acc).bit_length() if acc else 0)
        if err >= abs(acc) << known + w - 1:
            need = max(need, 2 * known)
        bits = need if need > bits else 2 * bits
    if log:
        # |acc| 2^e / den as q 2^(e - j), q of about 100 bits truncated with
        # a sticky last bit, so that rounding q to 80 bits rounds the exact
        # ratio; libmp's 80-bit log of it, rounded to nearest, as mp.log
        j = 100 + den.bit_length() - abs(acc).bit_length()
        q, r = divmod(abs(acc) << max(j, 0), den << max(-j, 0))
        lq = libmp.mpf_log(libmp.from_man_exp(q | bool(r), e - j, 80, "n"), 80, "n")
        return (-1.0 if acc < 0 else 1.0), libmp.to_float(lq, rnd="n")
    return _div(acc << e, den) if e >= 0 else _div(acc, den << -e)


def _cut_width(known: int, nb: int) -> int:
    """The width w of a cut Horner pass over fewer than 2^nb terms whose
    inputs are known to ``known`` bits: its cuts then move the sum by at
    most 2^-(known + 1) mag, half the inputs' rounding, and the pass
    measures the loss as an exact sum of its inputs would."""
    return known + nb + 2


def _cut_horner(nums: list, Y: int, s: int, w: int) -> tuple:
    """(acc, mag, e): sum_j nums[j] y^j, y = Y 2^-s, as acc 2^e, and
    mag 2^e >= sum_j |nums[j]| |y|^j, by Horner in floating point on Python
    ints (Brent & Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 3).
    Each step is exact, then cuts acc down (floor) and mag up (ceiling) to
    w bits of mag, so it works on integers of about w bits and the
    coefficient's, not on the whole sum's n s + row bits.  A cut moves acc
    by less than one unit, at most 2^(1 - w) of mag, and each later step
    multiplies that by |y| and mag by at least |y|, so the n + 1 cuts move
    the sum by at most (n + 1) 2^(1 - w) mag (Higham 2002, §5.1)."""
    acc = mag = e = 0
    aY = abs(Y)
    for c in reversed(nums):
        f = e - s
        if f >= 0:
            acc, mag, e = (acc * Y << f) + c, (mag * aY << f) + abs(c), 0
        else:
            acc, mag, e = acc * Y + (c << -f), mag * aY + (abs(c) << -f), f
        t = mag.bit_length() - w
        if t > 0:
            acc, mag, e = acc >> t, -(-mag >> t), e + t
    return acc, mag, e


def _div(num: int, den: int) -> float:
    """num / den (den > 0) correctly rounded, +-inf past the double range."""
    try:
        return num / den
    except OverflowError:
        return -math.inf if num < 0 else math.inf


# --------------------------------------------------------------------------
# Entire auxiliary
# --------------------------------------------------------------------------

def cal_I(params: GLParams, z) -> float:
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
    lg0, lz = gammaln(a * b + 1.0), math.log(z) if z > 0.0 else -math.inf
    logs, top, small = [], -math.inf, 0
    while small < _CONSECUTIVE:
        k = len(logs)
        if k == _SERIES_CAP:
            raise ConvergenceError(f"cal_I did not converge in {k} terms")
        lt = lg0 - gammaln(a * k + a * b + 1.0) - gammaln(k + 1.0) \
            + (k * lz if k else 0.0)
        logs.append(lt)
        top = max(top, lt)
        small = small + 1 if lt < top - 17.0 * math.log(10.0) else 0
    total = math.fsum(math.exp(lt - top) for lt in logs)
    return math.exp(top) * total if top <= LOG_DOUBLE_MAX else math.inf
