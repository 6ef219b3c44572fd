"""Independent oracles for the test suite.

Every routine here computes its target along a path disjoint from the
package's production code: direct high-precision summation, quadrature of
defining integrals, finite differences, partition enumeration, or exact
triangular ODE solutions.  Production modules must never import this file.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm


def binet_log_gamma(z, dps: int = 80):
    """log Gamma by argument shift plus Stirling series with Bernoulli
    correction terms, at high precision; independent of any library
    log-gamma."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        shift = mp.mpc(0)
        while zz.real < 40:
            shift += mp.log(zz)
            zz += 1
        # Stirling with 20 Bernoulli terms
        out = (zz - mp.mpf(1) / 2) * mp.log(zz) - zz + mp.log(2 * mp.pi) / 2
        for k in range(1, 21):
            out += mp.bernoulli(2 * k) / (2 * k * (2 * k - 1) * zz ** (2 * k - 1))
        return complex(out - shift)


def euler_2f1(a: float, b: float, c: float, z: float, dps: int = 40) -> float:
    """2F1 by the Euler integral (needs c > b > 0):

    F = G(c)/(G(b) G(c-b)) Int_0^1 t^(b-1) (1-t)^(c-b-1) (1 - z t)^(-a) dt.
    """
    assert c > b > 0
    with mp.workdps(dps):
        am, bm, cm, zm = (mp.mpf(str(v)) for v in (a, b, c, z))
        pref = mp.gamma(cm) / (mp.gamma(bm) * mp.gamma(cm - bm))
        val = mp.quad(lambda t: t ** (bm - 1) * (1 - t) ** (cm - bm - 1)
                      * (1 - zm * t) ** (-am), [0, 1])
        return float(pref * val)


def g_kernel_integral(alpha: float, beta: float, y: float, dps: int = 40) -> float:
    """Int_0^y r^(beta + 1/alpha) (1 - r^(1/alpha))^(-alpha-1) dr."""
    with mp.workdps(dps):
        am, bm, ym = mp.mpf(str(alpha)), mp.mpf(str(beta)), mp.mpf(str(y))
        return float(mp.quad(lambda r: r ** (bm + 1 / am)
                             * (1 - r ** (1 / am)) ** (-am - 1), [0, ym]))


def series_oracle(term_log_sign, kmax: int, dps: int = 80) -> float:
    """Direct high-precision summation of sum_k sign_k exp(log_k)."""
    with mp.workdps(dps):
        return float(mp.fsum(sgn * mp.e ** mp.mpf(lg)
                             for lg, sgn in (term_log_sign(k) for k in range(kmax))))


def lambda_series_mp(alpha, beta, z) -> float:
    """Kernel density lambda(z), z >= 0, from its residue series

        lambda(z) = Gamma(ab + 1) sum_k (-1)^k z^k / (Gamma(ab + 1 - a - a k) k!)

    by series_oracle: terms until they fall 30 digits below the value, at
    digits enough for the sum to keep 30 above its rounding.  The terms may
    peak far above the value (near 1e57 against 1.4e-60 at (3/4, 1/2),
    z = 6), and both sizes depend on the value, so the sum is redone with
    more terms and digits until they hold."""
    ln10 = math.log(10.0)
    lg0 = math.lgamma(alpha * beta + 1.0)
    lz = math.log(z) if z > 0.0 else 0.0

    def log_term(k):                 # float estimate of log |t_k|
        w = alpha * beta + 1.0 - alpha - alpha * k
        lg = float(mp.log(abs(mp.gamma(w)))) if w != round(w) or w > 0 else math.inf
        return lg0 + k * lz - math.lgamma(k + 1.0) - lg

    def term(k):
        am, bm = mp.mpf(alpha), mp.mpf(beta)
        r = mp.rgamma(am * bm + 1 - am - am * k)
        if r == 0:
            return mp.ninf, 0
        lt = mp.loggamma(am * bm + 1) + mp.log(abs(r)) - mp.loggamma(k + 1)
        if k:
            lt += k * mp.log(mp.mpf(z))
        return lt, (-1) ** k * mp.sign(r)

    logs = [log_term(0)]            # -inf at the poles of Gamma(bb - a k)
    cut, dps = math.inf, 0          # the tail's level from the value, once known

    def floor():                    # 40 digits under the largest term, or cut
        return min(max(logs) - 40 * ln10, cut)

    while True:
        while z > 0.0 and not (len(logs) > 10 and logs[-1] < max(logs[-8:-1])
                               and max(logs[-8:]) < floor()):
            logs.append(log_term(len(logs)))
        peak = max(max(logs), 0.0) / ln10
        dps = max(dps, int(peak) + 40)
        value = series_oracle(term, len(logs), dps)
        lv = math.log10(abs(value)) if value else -330.0
        lost = int(peak - lv) + 1
        if lost <= dps - 30 and floor() <= (lv - 30) * ln10:
            return value
        dps, cut = max(dps, lost + 40), min(cut, (lv - 40) * ln10)


def lambda_contour_mp(alpha, beta, z, dps: int = 30) -> float:
    """Kernel density lambda(z), z > 0, from its Mellin-Barnes integral

        lambda(z) = (1/pi) Int_0^inf Re[z^-s Gamma(s) Gamma(ab+1)
                                        / Gamma(alpha s + ab + 1 - alpha)] dt

    on the vertical line s = c + i t through the real saddle c of the
    integrand, found by bisection in log c.  Trapezoid rule at step
    h = sigma/12, sigma = (second log-derivative at c)^(-1/2), until four
    points in a row are below 1e-25 of the first; its even-indexed points
    give the rule at 2h = sigma/6, and the two must agree to 1e-20.  Near
    the pole of Gamma(s) at 0 (c not many sigma away from it) they may
    not; h is then halved, at most three times (else ArithmeticError).
    0.0 where the saddle lies beyond e^700.
    """
    with mp.workdps(dps):
        am, bm = mp.mpf(alpha), mp.mpf(beta)
        bb = am * bm + 1 - am
        lz = mp.log(mp.mpf(z))

        def slope(u):
            c = mp.exp(u)
            return -lz + mp.digamma(c) - am * mp.digamma(am * c + bb)

        lo, hi = mp.mpf(-30), mp.mpf(700)
        if slope(hi) < 0:
            return 0.0
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        c = mp.exp((lo + hi) / 2)
        h = 1 / mp.sqrt(mp.psi(1, c) - am ** 2 * mp.psi(1, am * c + bb)) / 12
        lg0 = mp.loggamma(am * bm + 1)

        def logf(s):
            return -s * lz + mp.loggamma(s) + lg0 - mp.loggamma(am * s + bb)

        l0 = mp.re(logf(c))
        for _ in range(4):
            vals = [mp.mpf(1) / 2]
            tiny = 0
            while tiny < 4:
                if len(vals) > 200000:
                    raise ArithmeticError(f"lambda contour oracle did not decay at z={z}")
                v = mp.exp(logf(c + 1j * h * len(vals)) - l0)
                tiny = tiny + 1 if abs(v) < mp.mpf("1e-25") else 0
                vals.append(mp.re(v))
            fine = mp.fsum(vals) * h
            coarse = mp.fsum(vals[::2]) * 2 * h
            if abs(fine - coarse) <= mp.mpf("1e-20") * abs(fine):
                break
            h /= 2
        else:
            raise ArithmeticError(f"lambda contour oracle unresolved at z={z}")
        return float(mp.exp(l0) * fine / mp.pi)


def lambda_sine_form(alpha, beta, z, terms: int = 400, dps: int = 30) -> float:
    """Kernel density from its residue series with the reciprocal gammas
    reflected, 1/Gamma(bb - a k) = sin(pi a (k + 1 - b)) Gamma(a (k + 1 - b))
    / pi; away from integer a (k + 1 - b), where a gamma factor has a pole."""
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        return float(mp.gamma(am * bm + 1) / mp.pi * mp.fsum(
            (-zm) ** k * mp.sinpi(am * (k + 1 - bm)) * mp.gamma(am * (k + 1 - bm))
            / mp.factorial(k) for k in range(terms)))


def mellin_e_quad(alpha, beta, s, dps: int = 30) -> complex:
    """Mellin transform int x^s e(x) dx of the invariant density, by
    tanh-sinh quadrature in u = x^(1/alpha), where the integrand is
    u^(alpha s + alpha beta) e^-u / Gamma(alpha beta + 1)."""
    with mp.workdps(dps):
        am, bm = mp.mpf(alpha), mp.mpf(beta)
        return complex(mp.quad(lambda u: u ** (am * mp.mpc(s) + am * bm) * mp.e ** (-u),
                               [0, mp.inf]) / mp.gamma(am * bm + 1))


def wright_series_mp(alpha, beta, n, z, kmax: int = 400, dps: int = 80) -> complex:
    """Direct summation of the Wright-type series at high precision."""
    with mp.workdps(dps):
        am, bm = mp.mpf(str(alpha)), mp.mpf(str(beta))
        zm = mp.mpc(z)
        s = mp.fsum(mp.gamma(k / am + n + bm + 1 / am)
                    / mp.gamma(k / am + bm + 1 / am) / mp.factorial(k) * zm ** k
                    for k in range(kmax))
        return complex(s)


def frak_I_mp(alpha, beta, z, dps: int = 30) -> float:
    """Entire series sum_k z^k / (Gamma(k/alpha + beta + 1/alpha) k!) by
    direct summation, past k = |z| until a term falls below the working
    epsilon of the sum."""
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s, k = mp.mpf(0), 0
        while True:
            t = zm ** k * mp.rgamma(k / am + bm + 1 / am) / mp.factorial(k)
            s += t
            if k > abs(zm) and abs(t) <= mp.eps * abs(s):
                return float(s)
            k += 1


#: largest x^(1/alpha) for which w_density_mp sizes its own kmax and dps:
#: past it the sum needs thousands of terms at about y digits
W_ORACLE_Y_CAP = 200.0


def w_density_mp(alpha, beta, n, q, x, kmax: int = None, dps: int = None) -> float:
    """Direct summation of W_n^(q)(x) with the unit-mass normalisation.

    The series alternates; with y = x^(1/alpha) its terms peak near k = y,
    at up to about exp(2y) (y/alpha)^(n+q) times the result, which is of
    the order of exp(-y).  kmax and dps left out are sized from that:
    terms until they fall 40 digits below exp(-y), past the peak, and
    digits for the cancellation plus 40.  Left out past y = W_ORACLE_Y_CAP
    they raise ValueError."""
    a, y = float(alpha), float(x) ** (1.0 / float(alpha))
    if (kmax is None or dps is None) and y > W_ORACLE_Y_CAP:
        raise ValueError(f"x^(1/alpha) = {y:.4g} is past the cap {W_ORACLE_Y_CAP} "
                         "for default kmax and dps")
    if kmax is None:
        ba = float(beta) + 1.0 / a - 1.0

        def log_term(k):             # log |term k|, without the common x^(ba - q)
            return (math.lgamma(k / a + n + ba + 1.0) - math.lgamma(k / a + ba + 1.0 - q)
                    + k * math.log(y) - math.lgamma(k + 1.0))

        kmax = int(y) + q + 2
        while not (log_term(kmax) < -y - 40.0 * math.log(10.0)
                   and log_term(kmax) < log_term(kmax - 1)):
            kmax += 1
    if dps is None:
        dps = int((2 * y + (n + q) * math.log1p(y / a)) / math.log(10)) + 40
    with mp.workdps(dps):
        am, bm = mp.mpf(str(alpha)), mp.mpf(str(beta))
        xm = mp.mpf(str(x))
        ba = bm + 1 / am - 1
        s = mp.fsum((-1) ** k * mp.gamma(k / am + n + ba + 1)
                    * mp.rgamma(k / am + ba + 1 - q) * xm ** (k / am + ba - q)
                    / mp.factorial(k) for k in range(kmax))
        return float(s / (mp.factorial(n) * am * mp.gamma(am * bm + 1)))


def bell_partitions(k: int, j: int, a: list) -> float:
    """Partial Bell polynomial by brute-force enumeration of partitions of k
    into j parts; a[i] is the i-th argument (1-indexed)."""
    total = 0.0
    for parts in itertools.combinations_with_replacement(range(1, k + 1), j):
        if sum(parts) != k:
            continue
        mult: dict = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        coeff = math.factorial(k)
        for p, m in mult.items():
            coeff //= math.factorial(m) * math.factorial(p) ** m
        term = float(coeff)
        for p in parts:
            term *= a[p]
        total += term
    return total


def bell_args(alpha, K: int, num=float) -> list:
    """Argument sequence a_i = Gamma(i - 1/alpha)/Gamma(-1/alpha), i = 1..K,
    as the finite product prod_{m=0}^{i-1} (m - 1/alpha); a[0] is unused.
    ``num`` is float, or mp.mpf for values at the mpmath working precision."""
    inv = 1 / num(alpha)
    out = [math.nan]
    acc = num(1)
    for i in range(1, K + 1):
        acc *= (i - 1) - inv
        out.append(acc)
    return out


class BellTable:
    """Partial Bell polynomials B_{k,j}, k <= K, at the arguments ``args``."""

    def __init__(self, args: list, rows: list):
        self.args, self.rows = args, rows

    def B(self, k: int, j: int):
        return self.rows[k][j] if 0 <= j <= k < len(self.rows) else 0.0


def bell_table(params, K: int, num=float) -> BellTable:
    """Partial Bell polynomials at bell_args by the recurrence
    B_{k,j} = sum_i C(k-1, i-1) a_i B_{k-i,j-1}.  The package's DomainError
    for alpha = 1 (no Bell structure) and for K < 1."""
    from glspec.core import DomainError
    if K < 1:
        raise DomainError("K must be >= 1")
    if params.alpha >= 1.0:
        raise DomainError("Bell path is for alpha < 1; use the classical branch")
    a = bell_args(params.alpha, K, num)
    rows = [[num(1)]]
    for k in range(1, K + 1):
        rows.append([num(0)] + [
            sum((math.comb(k - 1, i - 1) * a[i] * rows[k - i][j - 1]
                 for i in range(1, k - j + 2)), num(0))
            for j in range(1, k + 1)])
    return BellTable(a, rows)


def r_coeffs_bell_mp(params, n: int, dps: int = 80) -> list:
    """Coefficients c_j of R_n(x) = sum_j c_j x^(j/alpha) by the partial-Bell
    formula, at dps digits with mp.gamma (alpha < 1):

        c_j = (1/n!) sum_{k>=j} C(n,k) [G(n+b+1/a)/G(k+b+1/a)] (-1)^(k+j) B_{k,j}.

    alpha and beta are the exact binary values of the floats."""
    with mp.workdps(dps):
        am, bm = mp.mpf(params.alpha), mp.mpf(params.beta)
        bt = bell_table(params, max(n, 1), mp.mpf)
        top = mp.gamma(n + bm + 1 / am)
        return [mp.fsum(math.comb(n, k) * top / mp.gamma(k + bm + 1 / am)
                        * (-1) ** (k + j) * bt.B(k, j) for k in range(j, n + 1))
                / mp.factorial(n) for j in range(n + 1)]


def richardson_derivative(f, x: float, order: int, h0: float = 1e-2,
                          levels: int = 4) -> float:
    """order-th derivative by iterated central differences with Richardson
    extrapolation."""
    def d1(g, x, h):
        return (g(x + h) - g(x - h)) / (2.0 * h)

    def dn(g, x, h, m):
        if m == 0:
            return g(x)
        return d1(lambda t: dn(g, t, h, m - 1), x, h)

    vals = []
    for i in range(levels):
        h = h0 / 2.0 ** i
        vals.append(dn(f, x, h, order))
    # Richardson on h^2 error expansion
    v = vals[:]
    for lev in range(1, levels):
        v = [(4.0 ** lev * v[i + 1] - v[i]) / (4.0 ** lev - 1.0)
             for i in range(len(v) - 1)]
    return v[0]


def moment_ode_evolution(alpha: float, beta: float, k: int, t: float):
    """Exact monomial evolution: coefficients of P_t x^k in the monomial
    basis from the triangular first-order system

        du_j/dt = (j+1) phi(j+1) u_{j+1} - j u_j        (j = 0..k)

    integrated by the matrix exponential.
    """
    from math import exp, lgamma

    def phi_v(s):
        return exp(lgamma(alpha * s + alpha * beta + 1.0)
                   - lgamma(alpha * s + alpha * beta + 1.0 - alpha))

    A = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        A[j, j] = -j
        if j + 1 <= k:
            A[j, j + 1] = (j + 1) * phi_v(j + 1)
    u0 = np.zeros(k + 1)
    u0[k] = 1.0
    return expm(t * A) @ u0


def classical_laguerre(n: int, beta: float, x: float) -> float:
    """Generalized Laguerre polynomial via the library evaluator."""
    from scipy.special import eval_genlaguerre
    return float(eval_genlaguerre(n, beta, x))


def quad_against_weight(alpha, beta, f, dps: int = 30, upper: float = 80.0) -> float:
    """Int f(x) e(x) dx via the u = x^(1/alpha) substitution and tanh-sinh
    quadrature of the unit-mass invariant density."""
    with mp.workdps(dps):
        am, bm = mp.mpf(str(alpha)), mp.mpf(str(beta))
        g0 = mp.gamma(am * bm + 1)
        val = mp.quad(lambda u: f(float(u ** am)) * u ** (am * bm)
                      * mp.e ** (-u) / g0, [0, upper])
        return float(val)


def g_phase_mp(alpha, varsigma, tau, dps: int = 80) -> float:
    """Contour phase function re-derived independently at high precision."""
    with mp.workdps(dps):
        am = mp.mpf(str(alpha))
        vs = mp.mpf(str(varsigma))
        tm = mp.mpf(str(tau))
        sb = 1 - vs
        out = (1 + am) / 2 * mp.log(1 + tm ** 2) \
            - tm * (1 + am) * mp.atan(tm)
        if sb != 0:
            out -= sb / 2 * mp.log(1 + tm ** 2 / sb ** 2)
            out += tm * (mp.atan2(tm, sb))
        else:
            out += tm * mp.pi / 2
        return float(out)
