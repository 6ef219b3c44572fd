"""Special-function kernel.

The package's complex gamma functions (``log_gamma``, ``rgamma_c``:
scipy.special's ufuncs, with PoleError at the poles), the positive-term
entire function cal_I, and the precision policy of its finite power sums
(P_n, R_n, W_n^(q); lambda's residue series takes the first tier).  The
first tier is one float64 Horner pass, ``_horner_float``, which keeps each
sum whose condition number mag / |sum|, mag = sum |c_j| |y|^j, is at most
COND_THRESHOLD.  The other two are one engine, ``_Tiers``, for a point, an
array of points and a chunk of a kernel sum's orders alike, so a sum has
one value whichever caller asks: a double-double pass (Dekker's
error-free products added by one ``math.fsum``, an error of at most about
(n + 5) u^2 mag, u = 2^-53), then, for the sums left and every sum at
extended precision, a sum on Python integers from inputs known to the bits
the measured cancellation needs, rounded once (``_horner_exact``): cut to
a few bits past the inputs' (``_cut_horner``), or exact where every input
is, so that exact zeros and ties stay exact.
"""

from __future__ import annotations

import math
from itertools import accumulate

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
#: absolute error, a few u^2 mag in practice (u = 2^-53), is then within
#: the rounding of v to float64
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


def _escalating_horner(coeffs, y, params: GLParams, n: int, x, dd_args, exact_args,
                       log: bool = False, cond_max: float = COND_THRESHOLD):
    """sum_j coeffs[j] y^j, the float64 row of order n of a family, at a
    float y or at every point of an ndarray y (the result has y's shape), x
    the family's point for y (y = x for P_n, x^(1/alpha) for W_n^(q)).  The
    float64 tier keeps each point whose mag / |sum| is at most ``cond_max``
    (COND_THRESHOLD unless a caller needs more than 1e-8); ``_Tiers`` redoes
    the rest, and all at extended precision, by one double-double pass
    (error at most about (n + 5) u^2 mag) and the exact tier.  With ``log``
    the result is (sign, log|sum|), finite past the double range."""
    if not isinstance(y, np.ndarray):
        s, mag = _horner_float(coeffs, y)
        cond = mag / abs(s) if s != 0.0 else math.inf
        if cond <= cond_max and params.precision.is_double:
            return _log_form(s) if log else s
        return _Tiers(params, n, float(x), [s], [mag], dd_args, exact_args, log).value(0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s, mag = _horner_float(coeffs, y.ravel())
        cond = np.where(s != 0.0, mag / np.abs(s), math.inf)
    out = list(_log_form(s)) if log else [s]
    todo = np.flatnonzero(~(cond <= cond_max) | (not params.precision.is_double)).tolist()
    if todo:
        tiers = _Tiers(params, n, np.ravel(x), s.tolist(), mag.tolist(), dd_args, exact_args, log)
    for j in todo:
        v = tiers.value(j)
        for o, vo in zip(out, v if log else (v,)):
            o[j] = vo
    out = [o.reshape(y.shape) for o in out]
    return tuple(out) if log else out[0]


def _log_form(v) -> tuple:
    """(sign, log|v|) of a float v, or of each value of an ndarray, by math.log."""
    if isinstance(v, np.ndarray):
        return np.copysign(1.0, v), np.array([math.log(a) if a else -math.inf
                                              for a in np.abs(v).tolist()])
    return math.copysign(1.0, v), (math.log(abs(v)) if v else -math.inf)


class _Tiers:
    """The double-double and exact tiers for the sums s_j, j = 0, 1, ..., of a
    family's rows at x (order n at the point x[j] of an ndarray x, or order
    n + j at a float x) that the float64 tier, which gave their sums s and
    mags, did not keep.  A point that is not finite never passes that
    tier's keep test, and raises DomainError here.

    ``value(j)`` gives s_j.  Its double-double tier, ``_dd(j)``, sums the
    row and point of ``dd_args(orders, point)`` by ``_dd_sum``, and its
    value v is kept where mag <= 1e16 |v| (``_DD_COND``).  Else, and at
    extended precision, ``_horner_exact`` redoes the sum from
    ``exact_args(order, point, bits)``.  With ``log`` a value is (sign,
    log|s_j|)."""

    def __init__(self, params: GLParams, n: int, x, s: list, mag: list, dd_args, exact_args,
                 log: bool):
        self.params, self.n, self.x, self.s, self.mag = params, n, x, s, mag
        self.dd_args, self.exact_args, self.log = dd_args, exact_args, log
        self.many = isinstance(x, np.ndarray)
        if not (np.isfinite(x).all() if self.many else math.isfinite(x)):
            bad = x[~np.isfinite(x)][0] if self.many else x
            raise DomainError(f"sums are evaluated at finite points, got x = {bad}")

    def value(self, j: int):
        s, mag = self.s[j], self.mag[j]
        if self.params.precision.is_double:
            s = self._dd(j)
            if mag <= _DD_COND * abs(s) < math.inf:
                return _log_form(s) if self.log else s
        cond = mag / abs(s) if s != 0.0 else math.inf
        return _horner_exact(cond, self.params,
                             lambda i, bits: self.exact_args(*self._at(i), bits), j, self.log)

    def _at(self, j: int) -> tuple:
        """(order, point) of sum j."""
        return (self.n, float(self.x[j])) if self.many else (self.n + j, self.x)

    def _dd(self, j: int) -> float:
        n, x = self._at(j)
        (row,), point = self.dd_args([n], x)
        return _dd_sum(*row, *point)


def _horner_float(coeffs, y) -> tuple:
    """(sum_j c_j y^j, mag = sum_j |c_j| |y|^j) by Horner in float64, at a
    float y or elementwise over an ndarray y, by the same operations, so to
    the same bits.  A 2-D coeffs is a block of m rows, zero past each row's
    degree, row i summed at y[i] (an array of m points), column by column,
    the rows and their absolute values as one vector of 2m: a leading zero
    leaves p = mag = 0, so each row gets the bits of its own pass.  Over an
    ndarray y the first step makes fresh arrays and the rest run in place.
    Floats overflow to inf quietly; arrays under errstate."""
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
        p *= y
        p += c
        mag *= ay
        mag += abs(c)
    return p, mag


def _horner_ragged(coeffs, y, cut) -> tuple:
    """``_horner_float`` of each point of the ndarray y over its own row
    cut, coeffs[:cut[i] + 1] (cut an int array), with the bits of that
    pass: the points run sorted by cut, and each joins at its first term
    from p = mag = 0, the sums and magnitudes side by side.  Under
    errstate, as ``_horner_float`` over an array."""
    order = np.argsort(-cut, kind="stable")
    ys, acc = y[order], np.zeros((y.size, 2))
    ys = np.stack([ys, np.abs(ys)], axis=1)
    cs = np.stack([coeffs, np.abs(coeffs)], axis=1)
    joined = np.searchsorted(-cut[order], -np.arange(cut.max() + 1), side="right").tolist()
    for k in range(len(joined) - 1, -1, -1):
        part = acc[:joined[k]]
        part *= ys[:joined[k]]
        part += cs[k]
    acc[order] = acc.copy()
    return acc[:, 0], acc[:, 1]


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
    k = K, one ``_dd_mul`` step per power (inlined, y split once) in Python
    floats: a numpy pass per step costs more than the step itself.  Each
    step adds a relative error of about u^2 (2 u^2 where y_lo != 0)."""
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
    """sum_k (hi_k + lo_k)(y_hi[k] + y_lo[k]) for each double-double row
    (hi, lo) of ``rows`` at the point's double-double powers: the products
    by one ``_dd_mul`` over the rows end to end, then one ``math.fsum`` per
    row, exact and rounded once (Ogita, Rump & Oishi 2005).  Each product
    carries, relative to |c_k| |y|^k, the rounding of its row (3 u^2), its
    power (k u^2; 2k u^2 at a double-double point) and its cross terms
    (2 u^2): at most about (n + 5) u^2 mag, or (2n + 5) u^2 mag, in all.
    Parts that meet inf or NaN, or overflow as added, give inf or NaN."""
    his, los = zip(*rows)
    with np.errstate(over="ignore", invalid="ignore"):
        m, e = _dd_mul(np.concatenate(his), np.concatenate(los),
                       np.concatenate([y_hi[:h.size] for h in his]),
                       np.concatenate([y_lo[:h.size] for h in his]))
    m, e, ends = m.tolist(), e.tolist(), list(accumulate(h.size for h in his))
    return [_fsum(m[a:b] + e[a:b]) for a, b in zip([0] + ends, ends)]


def _dd_sum(hi, lo, y: float, y_lo: float) -> float:
    """``_dd_block`` for one row at a float point, in Python floats by the
    operations of ``_dd_powers`` and ``_dd_mul``, so to the same bits,
    without numpy's cost per call."""
    t = _SPLIT * y
    ya = t - (t - y)
    yb = y - ya
    ph, pl, ms, es = 1.0, 0.0, [], []
    m_add, e_add = ms.append, es.append
    for ch, cl in zip(hi.tolist(), lo.tolist()):
        t = _SPLIT * ch
        ca = t - (t - ch)
        cb = ch - ca
        t = _SPLIT * ph
        pa = t - (t - ph)
        pb = ph - pa
        m = ch * ph
        e = ((ca * pa - m) + ca * pb + cb * pa) + cb * pb + (ch * pl + cl * ph)
        h = m + e
        m_add(h)
        e_add(e - (h - m))
        m = ph * y
        e = ((pa * ya - m) + pa * yb + pb * ya) + pb * yb + (ph * y_lo + pl * y)
        ph = m + e
        pl = e - (ph - m)
    return _fsum(ms + es)


def _fsum(parts: list) -> float:
    """math.fsum, NaN where the parts meet inf - inf or overflow as added."""
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):
        return math.nan


class _Basis(_Tiers):
    """A family's sums s_n = sum_k c_{n,k} y^k at one point x, a chunk of
    orders at a time: ``_basis_values`` sums orders lo..hi in float64 by one
    ``_horner_float`` pass over their rows, ``rows(lo, hi)`` (zero past each
    row's degree), bitwise each row's own pass, and ``_take`` holds those
    sums and which of them the float64 tier keeps.  ``sum(n)`` gives s_n
    (with ``log`` its log form): the kept sum, or the higher tiers' value.
    The first sum not kept at or past an order runs the double-double pass
    of the chunk's failing orders from there on as one ``_dd_block`` on x's
    powers (error at most about (n + 5) u^2 mag, bitwise ``_dd_sum``'s), so
    a caller reading only the orders it reaches runs no tier past them."""

    def __init__(self, params: GLParams, y: float, x: float, rows, dd_args, exact_args,
                 log: bool = False):
        super().__init__(params, 0, x, None, None, dd_args, exact_args, log)
        self.y, self.rows = y, rows
        self.pw = [[1.0], [0.0], (), ()]     # x's powers, as lists and as arrays

    def _take(self, lo: int, s: np.ndarray, mag: np.ndarray) -> None:
        """Hold the first tier's sums s and mags of orders lo.. and its keep
        test of each."""
        with np.errstate(invalid="ignore", divide="ignore"):
            kept = np.where(s != 0.0, mag / np.abs(s), math.inf) <= COND_THRESHOLD
        kept &= self.params.precision.is_double
        self.n, self.s, self.mag, self.kept = lo, s.tolist(), mag.tolist(), kept.tolist()
        self.dd = {}

    def sum(self, n: int):
        j = n - self.n
        if self.kept[j]:
            return _log_form(self.s[j]) if self.log else self.s[j]
        return self.value(j)

    def _dd(self, j: int) -> float:
        if j not in self.dd:
            J = [i for i in range(j, len(self.s)) if not (self.kept[i] or i in self.dd)]
            rows, point = self.dd_args([self.n + i for i in J], self.x)
            K = max(h.size for h, _ in rows)
            ph, pl, ph_a, pl_a = self.pw
            if len(ph_a) < K:
                _dd_powers(*point, ph, pl, K - 1)
                self.pw[2:] = ph_a, pl_a = np.array(ph), np.array(pl)
            self.dd.update(zip(J, _dd_block(rows, ph_a, pl_a)))
        return self.dd[j]


def _basis_values(spans) -> None:
    """The first tier of several bases in one pass: for each (basis, lo,
    hi) of spans (a basis of None is passed over), the sums of orders
    lo..hi, from one ``_horner_float`` pass over the rows of all of them
    stacked, each at its basis's point, held by the basis (``_take``)."""
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
    for (b, lo, _), k in zip(live, m):
        b._take(lo, s[:k], mag[:k])
        s, mag = s[k:], mag[k:]


def _dd_ratio(nums, den: int) -> tuple:
    """The exact rationals c = num / den (Python ints, den > 0) as read-only
    double-double rows (hi, lo), each part correctly rounded by Python's
    integer true division: hi = fl(c), lo = fl(c - hi).  lo is NaN where c
    is nonzero but hi + lo cannot carry it to 2^-106 (|c| below 2^-969, or
    past the double range), so that the double-double tier passes such a
    row on to the exact tier."""
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
    """Sum i of ``_Tiers`` on Python integers, given mag / |v| from a lower
    tier (inf or NaN where it had no v).

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
