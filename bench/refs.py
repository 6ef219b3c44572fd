"""Accuracy references, built after the timed loop.

Every reference is computed in mpmath at a working precision chosen from a
float64 estimate of the largest term, with 40 guard digits or more:

  P_n          its explicit sum;
  W_n          `w_density_mp` of tests/oracles.py, and R_n = W_n / e;
  lambda       `series_oracle` of tests/oracles.py where it needs at most
               300 terms and keeps 25 digits above its rounding noise; else
               (alpha >= 2/3 at large z, where the series would need
               hundreds of digits) the trapezoid rule on the Mellin-Barnes
               contour through its saddle;
  kernels      sums of the P_n and W_n references until three terms in a
               row fall below 1e-20 of the largest;
  ||R_n||      the closed form from the Mellin transform of W_n (below).
"""

from __future__ import annotations

import importlib.util
import math
from math import lgamma, log
from pathlib import Path

import mpmath as mp

from ops import KERNEL_PAIRS, POINT_PAIRS, grid

LN10 = math.log(10.0)
GUARD_DIGITS = 40
#: longest lambda series summed; longer ones go to the contour integral
_LAMBDA_SERIES_TERMS = 300


def load_oracles(root: Path):
    """tests/oracles.py, imported by path without touching the file."""
    spec = importlib.util.spec_from_file_location("glspec_test_oracles",
                                                  root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _log_abs_rgamma(w: float) -> float:
    """log |1/Gamma(w)| for real w; -inf at the poles of Gamma."""
    if w > 0.0:
        return -lgamma(w)
    if w == round(w):
        return -math.inf
    return lgamma(1.0 - w) + log(abs(math.sin(math.pi * w))) - log(math.pi)


def _dps(log_peak: float) -> int:
    return max(50, int(log_peak / LN10) + GUARD_DIGITS)


class References:
    def __init__(self, oracles):
        self.oracles = oracles

    # -- P_n ---------------------------------------------------------------

    @staticmethod
    def p_value(a: float, b: float, n: int, x: float) -> float:
        """P_n(x) = Gamma(ab+1) sum_k (-1)^k C(n,k) x^k / Gamma(ak+ab+1)."""
        peak = max(lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                   + k * log(x) - lgamma(a * k + a * b + 1) for k in range(n + 1))
        with mp.workdps(_dps(peak)):
            am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
            s = mp.fsum((-1) ** k * mp.binomial(n, k) * xm ** k
                        * mp.rgamma(am * k + am * bm + 1) for k in range(n + 1))
            return float(s * mp.gamma(am * bm + 1))

    # -- W_n, R_n ------------------------------------------------------------

    @staticmethod
    def _w_plan(a: float, b: float, n: int, x: float):
        """(kmax, dps) for the W_n series at x: terms run until they drop
        1e-30 below e(x), and the digits cover their peak over e(x)."""
        ba = b + 1.0 / a - 1.0
        lx = log(x)
        lpref = -(lgamma(n + 1) + log(a) + lgamma(a * b + 1))
        le = ba * lx - x ** (1.0 / a) - log(a) - lgamma(a * b + 1)
        peak = -math.inf
        prev = -math.inf
        k = 0
        while True:
            lt = lgamma(k / a + n + ba + 1) - lgamma(k / a + ba + 1) + (k / a + ba) * lx \
                - lgamma(k + 1) + lpref
            peak = max(peak, lt)
            if k > 4 and lt < prev and lt < le - 30 * LN10 and lt < peak - 30 * LN10:
                break
            prev = lt
            k += 1
        return k + 1, _dps(peak - le)

    def w_value(self, a: float, b: float, n: int, x: float) -> float:
        kmax, dps = self._w_plan(a, b, n, x)
        return self.oracles.w_density_mp(a, b, n, 0, x, kmax=kmax, dps=dps)

    def r_value(self, a: float, b: float, n: int, x: float) -> float:
        kmax, dps = self._w_plan(a, b, n, x)
        w = self.oracles.w_density_mp(a, b, n, 0, x, kmax=kmax, dps=dps)
        with mp.workdps(dps):
            am, bm, xm = mp.mpf(str(a)), mp.mpf(str(b)), mp.mpf(str(x))
            e = xm ** (bm + 1 / am - 1) * mp.exp(-xm ** (1 / am)) / (am * mp.gamma(am * bm + 1))
            return float(w / e)

    # -- lambda ------------------------------------------------------------

    def lambda_value(self, a: float, b: float, z: float) -> float:
        bb = a * b + 1.0 - a
        lg0 = lgamma(a * b + 1.0)
        lz = log(z)

        def log_term(k):
            return lg0 + k * lz + _log_abs_rgamma(bb - a * k) - lgamma(k + 1)

        logs = [log_term(0)]
        while not (len(logs) > 10 and logs[-1] < logs[-2] < max(logs) - 60 * LN10):
            logs.append(log_term(len(logs)))
        peak = max(logs)
        if len(logs) <= _LAMBDA_SERIES_TERMS:
            value = self._lambda_series(a, b, z, logs, log_term, _dps(peak) + 20)
            if value is not None:
                return value
        try:
            return self._lambda_contour(a, b, z)
        except ArithmeticError:
            value = self._lambda_series(a, b, z, logs, log_term, _dps(peak) + 80)
            if value is None:
                raise
            return value

    def _lambda_series(self, a, b, z, logs, log_term, dps):
        """series_oracle at dps digits, with terms run until they fall below
        its rounding noise; None unless the sum keeps 25 digits above it."""
        peak = max(logs)
        logs = list(logs)
        while not (logs[-1] < logs[-2] and logs[-1] < peak - (dps + 5) * LN10):
            logs.append(log_term(len(logs)))
        value = self.oracles.series_oracle(self._lambda_term(a, b, z), len(logs), dps)
        if value == 0.0 or log(abs(value)) < peak - (dps - 25) * LN10:
            return None
        return value

    @staticmethod
    def _lambda_term(a: float, b: float, z: float):
        """(log |t_k|, sign t_k) of t_k = Gamma(ab+1) (-z)^k / (Gamma(bb - ak) k!),
        assembled at the caller's working precision."""
        consts = {}

        def term(k):
            if mp.mp.dps not in consts:
                am, bm = mp.mpf(a), mp.mpf(b)
                consts[mp.mp.dps] = (am, am * bm + 1 - am, mp.loggamma(am * bm + 1),
                                     mp.log(mp.mpf(z)))
            am, bbm, lg0, lz = consts[mp.mp.dps]
            r = mp.rgamma(bbm - am * k)
            if r == 0:
                return mp.ninf, 0
            return lg0 + k * lz + mp.log(abs(r)) - mp.loggamma(k + 1), (-1) ** k * mp.sign(r)
        return term

    @staticmethod
    def _lambda_contour(a: float, b: float, z: float) -> float:
        """lambda(z) = (1/pi) Int_0^inf Re[z^-s Gamma(s) Gamma(ab+1) / Gamma(as+bb)] dt
        on s = c + i t, with c at the saddle of the integrand on the real axis.

        There the integrand is close to a Gaussian of width sigma in t, and the
        trapezoid rule converges exponentially in sigma / h: the sums with
        h = sigma/6 and sigma/12 must agree to 1e-20.
        """
        with mp.workdps(30):
            lz = mp.log(mp.mpf(z))
            am = mp.mpf(a)
            bbm = am * mp.mpf(b) + 1 - am
            slope = lambda c: -lz + mp.digamma(c) - am * mp.digamma(am * c + bbm)
            lo, hi = mp.mpf("1e-6"), mp.mpf(4)
            while slope(hi) < 0:
                hi *= 2
            for _ in range(110):          # slope increases in c
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
            c = (lo + hi) / 2
            h = 1 / mp.sqrt(mp.psi(1, c) - am ** 2 * mp.psi(1, am * c + bbm)) / 12
            lg0 = mp.loggamma(am * mp.mpf(b) + 1)

            def f(t):
                s = c + 1j * t
                return mp.re(mp.exp(-s * lz + mp.loggamma(s) + lg0 - mp.loggamma(am * s + bbm)))

            vals = [f(0) / 2]
            while len(vals) < 4000 and not (len(vals) > 24 and all(
                    abs(v) <= mp.mpf("1e-25") * abs(vals[0]) for v in vals[-4:])):
                vals.append(f(h * len(vals)))
            fine = mp.fsum(vals) * h
            coarse = mp.fsum(vals[::2]) * 2 * h
            if not abs(fine - coarse) <= mp.mpf("1e-20") * abs(fine):
                raise ArithmeticError(f"lambda contour reference unresolved at z={z}")
            return float(fine / mp.pi)

    # -- kernels -----------------------------------------------------------

    def kernel_value(self, kind: str, a: float, b: float, t: float, x: float, y: float):
        """(value, largest term) of the heat or self-similar kernel.

        W_0..W_N come from one pass over the W_n series (the series of
        `w_density_mp`, with Gamma(c + n)/Gamma(c) taken as the rising
        factorial (c)_n), and the largest term's W_n is checked against
        `w_density_mp` itself.
        """
        if kind == "heat":
            u, decay, lq = y, mp.exp(-mp.mpf(t)), 0
        else:
            u, decay, lq = y / (1.0 + t), 1 / (1 + mp.mpf(t)), 1
        N = 80
        while N <= 640:
            kmax, w_dps = self._w_plan(a, b, N, u)
            p_peak = max(lgamma(N + 1) - lgamma(k + 1) - lgamma(N - k + 1)
                         + k * log(x) - lgamma(a * k + a * b + 1) for k in range(N + 1))
            with mp.workdps(max(w_dps, _dps(p_peak))):
                W = self._w_all(a, b, N, u, kmax)
                P = self._p_all(a, b, N, x)
                terms = [decay ** (n + lq) * W[n] * P[n] for n in range(N + 1)]
                scale = max(abs(tm) for tm in terms)
                small = 0
                for n, tm in enumerate(terms):
                    small = small + 1 if abs(tm) <= mp.mpf("1e-20") * scale else 0
                    if small >= 3:
                        break
                else:
                    N *= 2
                    continue
                value = float(mp.fsum(terms[:n + 1]))
                top = max(range(n + 1), key=lambda m: abs(terms[m]))
                w_top = float(W[top])
            check = self.w_value(a, b, top, u)
            if not abs(check - w_top) <= 1e-14 * abs(check):
                raise ArithmeticError(f"kernel reference: W_{top}({u}) disagrees with the oracle")
            return value, float(scale)
        raise ArithmeticError("kernel reference did not converge in 640 terms")

    @staticmethod
    def _w_all(a: float, b: float, N: int, u: float, kmax: int) -> list:
        """W_0(u) .. W_N(u) at the caller's working precision."""
        am, bm, um = mp.mpf(a), mp.mpf(b), mp.mpf(u)
        ba = bm + 1 / am - 1
        lu = mp.log(um)
        acc = [mp.mpf(0)] * (N + 1)
        for k in range(kmax):
            c = k / am + ba + 1
            poch = (-1) ** k * mp.exp((c - 1) * lu) / mp.factorial(k)
            for n in range(N + 1):
                acc[n] += poch
                poch *= c + n
        g = am * mp.gamma(am * bm + 1)
        return [acc[n] / (mp.factorial(n) * g) for n in range(N + 1)]

    @staticmethod
    def _p_all(a: float, b: float, N: int, x: float) -> list:
        """P_0(x) .. P_N(x) from the explicit sums, at the caller's precision."""
        am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        g = [(-xm) ** j * mp.rgamma(am * j + am * bm + 1) for j in range(N + 1)]
        g0 = mp.gamma(am * bm + 1)
        out = []
        row = [1]
        for n in range(N + 1):
            out.append(g0 * mp.fsum(row[j] * g[j] for j in range(n + 1)))
            row = [1] + [row[j - 1] + row[j] for j in range(1, n + 1)] + [1]
        return out

    # -- ||R_n|| -----------------------------------------------------------

    @staticmethod
    def r_norm_value(a: float, b: float, n: int) -> float:
        """||R_n|| in L2(e) without the Bell route.

        The Mellin transform of W_n = R_n e is
            M(s) = (-1)^n/n! prod_{i=1..n} (s - i) Gamma(a(s-1)+ab+1)/Gamma(ab+1),
        and e has moments Gamma(a sigma + ab + 1)/Gamma(ab+1).  Writing
        R_n = sum_j c_j x^(j/a) and u = a(s-1)+ab+1 gives
            sum_j c_j (u)_j = Q(u) := (-1)^n/n! prod_i ((u-ab-1)/a + 1 - i),
        so the c_j follow from Q(0), Q(-1), ..., Q(-n) by forward
        substitution, and ||R_n||^2 = <R_n, W_n / e> = sum_j c_j (ab+1)_j Q(j+ab+1).
        """
        with mp.workdps(60 + 3 * n):
            am, bm = mp.mpf(a), mp.mpf(b)
            ab1 = am * bm + 1

            def Q(u):
                s = (u - ab1) / am + 1
                return (-1) ** n / mp.factorial(n) * mp.fprod(s - i for i in range(1, n + 1))

            c = []
            for m in range(n + 1):
                # (-m)_j = (-1)^j m! / (m-j)!
                known = mp.fsum(c[j] * (-1) ** j * mp.factorial(m) / mp.factorial(m - j)
                                for j in range(m))
                c.append((Q(-m) - known) / ((-1) ** m * mp.factorial(m)))
            nrm2 = mp.fsum(c[j] * mp.rf(ab1, j) * Q(j + ab1) for j in range(n + 1))
            return float(mp.sqrt(nrm2))

    # -- dispatch ----------------------------------------------------------

    def for_op(self, op: tuple):
        kind = op[0]
        if kind in ("P", "R", "W"):
            _, i, n, x0 = op
            fn = {"P": self.p_value, "R": self.r_value, "W": self.w_value}[kind]
            return [fn(*POINT_PAIRS[i], n, x) for x in grid(kind, x0)]
        if kind == "lambda":
            _, i, z0 = op
            return [self.lambda_value(*POINT_PAIRS[i], z) for z in grid(kind, z0)]
        if kind in ("heat", "selfsimilar"):
            _, i, t, x, y = op
            return self.kernel_value(kind, *KERNEL_PAIRS[i], t, x, y)
        if kind == "r_norm":
            return self.r_norm_value(op[1], op[2], op[3])
        return None


def build_references(ops: list) -> list:
    """References of ops, each a value or the error that stopped it."""
    refs = References(load_oracles(Path(__file__).resolve().parent.parent))
    out = []
    for op in ops:
        try:
            out.append(refs.for_op(op))
        except (ArithmeticError, ValueError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out
