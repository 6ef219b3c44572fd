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


def wright_series_mp(alpha, beta, n, z, kmax: int = 400, dps: int = 80) -> complex:
    """Direct summation of the Wright-type series at high precision."""
    with mp.workdps(dps):
        am, bm = mp.mpf(str(alpha)), mp.mpf(str(beta))
        zm = mp.mpc(z)
        s = mp.fsum(mp.gamma(k / am + n + bm + 1 / am)
                    / mp.gamma(k / am + bm + 1 / am) / mp.factorial(k) * zm ** k
                    for k in range(kmax))
        return complex(s)


def w_density_mp(alpha, beta, n, q, x, kmax: int = 600, dps: int = 60) -> float:
    """Direct summation of W_n^(q)(x) with the unit-mass normalisation."""
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
