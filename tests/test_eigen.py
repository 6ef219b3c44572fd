import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from glspec import core
from glspec.core import DomainError, make_params
from glspec import eigen as eg

from oracles import classical_laguerre, inner_exact_mp, p_coeffs_mp, richardson_derivative


def test_p0_is_one(p_half):
    seq = eg.p_coeffs(p_half, 0)
    assert seq.coeff[0, 0] == 1.0
    assert eg.p_eval(seq, 0, 3.7) == 1.0


def test_p1_closed_form(p_half):
    seq = eg.p_coeffs(p_half, 1)
    for x in (0.0, 0.5, 2.0):
        assert eg.p_eval(seq, 1, x) == pytest.approx(1.0 - x / p_half.d_ab,
                                                     rel=1e-14)


def test_classical_coefficients():
    p = make_params(1, 0)
    seq = eg.p_coeffs(p, 4)
    for n in range(5):
        for k in range(n + 1):
            expect = (-1.0) ** k * math.comb(n, k) / math.factorial(k)
            assert seq.coeff[n, k] == pytest.approx(expect, rel=1e-13)


def test_constant_term_and_sign_alternation(p_half, p_three_quarter):
    for p in (p_half, p_three_quarter):
        seq = eg.p_coeffs(p, 12)
        for n in range(13):
            assert seq.coeff[n, 0] == pytest.approx(1.0, rel=1e-14)
            signs = np.sign(seq.coeff[n, :n + 1])
            assert all(signs == [(-1.0) ** k for k in range(n + 1)])


def test_p_eval_classical_oracle():
    p = make_params(1, 0)
    seq = eg.p_coeffs(p, 6)
    # beta = 0: constant-term normalisation is the classical one
    assert eg.p_eval(seq, 2, 1.0) == pytest.approx(-0.5, rel=1e-13)
    for n in (1, 3, 6):
        for x in (0.3, 1.7, 6.2):
            assert eg.p_eval(seq, n, x) == pytest.approx(
                classical_laguerre(n, 0.0, x), rel=1e-12)


def test_p_eval_classical_beta():
    p = make_params(1, 1.5)
    seq = eg.p_coeffs(p, 5)
    for n in (1, 4):
        b2 = math.exp(math.lgamma(n + 1.0) + math.lgamma(2.5)
                      - math.lgamma(n + 2.5))
        for x in (0.5, 2.0):
            assert eg.p_eval(seq, n, x) == pytest.approx(
                b2 * classical_laguerre(n, 1.5, x), rel=1e-12)


def test_derivative_matches_finite_difference(p_half):
    seq = eg.p_coeffs(p_half, 3)
    x = 0.7
    fd = richardson_derivative(lambda t: eg.p_eval(seq, 3, t), x, 1)
    assert eg.p_eval(seq, 3, x, 1) == pytest.approx(fd, rel=1e-9)
    fd2 = richardson_derivative(lambda t: eg.p_eval(seq, 3, t), x, 2)
    assert eg.p_eval(seq, 3, x, 2) == pytest.approx(fd2, rel=1e-7)


def test_derivative_shift_consistency_classical():
    # d/dx L_n = -L_{n-1}^(1): classical cross-check of the shift identity
    p = make_params(1, 0)
    seq = eg.p_coeffs(p, 4)
    for x in (0.4, 1.3):
        assert eg.p_eval(seq, 4, x, 1) == pytest.approx(
            -classical_laguerre(3, 1.0, x), rel=1e-12)


def test_index_error(p_half):
    seq = eg.p_coeffs(p_half, 3)
    with pytest.raises(DomainError):
        eg.p_eval(seq, 4, 1.0)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 0.0)])
def test_non_finite_points_and_negative_orders_raise(alpha, beta):
    # P_n lives on the whole line, R_n and W_n on 0 < x < inf: a point off
    # those, at a float or in an array, and a negative order are DomainErrors
    from glspec import coeigen as ce
    p = make_params(alpha, beta)
    seq = eg.p_coeffs(p, 12)
    for x in (math.nan, math.inf, -math.inf):
        for at in (x, np.array([0.5, x])):
            for n in (0, 1, 12):
                with pytest.raises(DomainError):
                    eg.p_eval(seq, n, at)
                with pytest.raises(DomainError):
                    ce.r_eval_bell(p, n, at)
                with pytest.raises(DomainError):
                    ce.w_eval(p, n, at)
            with pytest.raises(DomainError):
                eg.p_eval(seq, 5, at, 2)
            with pytest.raises(DomainError):
                ce.w_eval(p, 5, at, 2)
    with pytest.raises(DomainError):
        eg.p_eval(seq, -1, 1.0)
    with pytest.raises(DomainError):
        ce.w_eval(p, -1, 1.0)
    with pytest.raises(DomainError):
        ce.r_eval_bell(p, -1, np.array([1.0, 2.0]))


def test_g_row_grows_by_one_gamma_per_entry(monkeypatch):
    # Gamma(ab + 1) is held with the row: growing it from k = 10 to 20
    # takes the ten gammas of its new entries
    monkeypatch.setattr(core, "_tables", type(core._tables)())
    p, calls = make_params(0.5, 1.0), []
    eg._row(p, 10)
    gamma = mp.gamma
    monkeypatch.setattr(mp, "gamma", lambda *a: (calls.append(a), gamma(*a))[1])
    eg._row(p, 20)
    assert len(calls) == 10


def test_jensen_generating_function(p_half):
    assert eg.jensen_check(p_half, 0.0, 0.5, 40) <= 1e-12
    assert eg.jensen_check(p_half, 1.0, 0.5, 40) <= 1e-10
    p1 = make_params(1, 0)
    assert eg.jensen_check(p1, 2.0, 1.0, 60) <= 1e-10


def test_jensen_check_sums_the_production_p_n(p_half, monkeypatch):
    calls = []
    p_eval = eg.p_eval
    monkeypatch.setattr(eg, "p_eval",
                        lambda seq, n, x, p=0: calls.append((n, x)) or p_eval(seq, n, x, p))
    eg.jensen_check(p_half, 1.0, 0.5, 40)
    assert calls == [(n, -1.0) for n in range(41)]


def test_laguerre_eval_against_mpmath():
    # relative error within 16 u (1 + |x L'(x) / L(x)|), the condition of
    # L_n^(b) at x, wherever |L| > 1e-8; 12.5 u cond at worst here (183 u cond
    # with the former three-term loop)
    u = 2.0 ** -53
    xs = np.linspace(0.05, 30.0, 21)
    with mp.workdps(40):
        for b in (0.0, 0.5, 1.0, 2.5):
            for n in range(60):
                got = eg.laguerre_eval(n, b, xs)
                for x, v in zip(xs.tolist(), got.tolist()):
                    ref = mp.laguerre(n, b, x)
                    if abs(ref) <= 1e-8:
                        continue
                    cond = 1.0 + float(abs(x * mp.laguerre(n - 1, b + 1, x) / ref)) if n else 1.0
                    assert abs(v - float(ref)) <= 16.0 * u * cond * abs(float(ref)), (n, b, x)
                    assert v == eg.laguerre_eval(n, b, x)
    assert eg.laguerre_eval(3, 0.5, 1.2, 2) == -eg.laguerre_eval(2, 1.5, 1.2, 1)
    assert eg.laguerre_eval(2, 0.5, 1.2, 3) == 0.0


def test_growth_bound_ratios(p_half):
    ratios = [eg.p_growth_bound_check(p_half, n, 1.0, 0)["ratio"]
              for n in (20, 40, 80)]
    assert all(math.isfinite(r) for r in ratios)
    assert ratios == sorted(ratios, reverse=True)  # non-increasing along n
    assert abs(eg.p_eval(eg.p_coeffs(p_half, 20), 20, 0.0)) == 1.0 <= 20 ** 0.5
    p1 = make_params(1, 0)
    assert math.isfinite(eg.p_growth_bound_check(p1, 50, 2.0, 1)["ratio"])


def test_non_orthogonality(p_half):
    from glspec.eigen import p_fn
    g12 = inner_exact_mp(0.5, 1.0, p_fn(p_half, 1).powers, p_fn(p_half, 2).powers)
    assert abs(g12) > 1e-6


def test_eval_stability_large_n(p_half):
    # escalated Horner against the mp coefficients route
    seq = eg.p_coeffs(p_half, 40)
    x = 9.5
    got = eg.p_eval(seq, 40, x)
    with mp.workdps(60):
        acc = mp.mpf(0)
        for c in reversed(p_coeffs_mp(p_half, 40, 60)):
            acc = acc * mp.mpf(x) + c
        ref = float(acc)
    assert got == pytest.approx(ref, rel=1e-7)
    # repeated escalations read the shared g_k row instead of forming it again
    faces = core.coeff_faces("P", p_half)
    row = faces["G"]
    for _ in range(3):
        assert eg.p_eval(seq, 40, x) == got
    assert core.coeff_faces("P", p_half) is faces and faces["G"] is row


def test_p_rows_match_closed_form():
    # each exact row is C(n, k) times the held g_k: one rounding at any n
    p = make_params(0.41, 1.3)
    rows = [eg._exact(p, n, 200) for n in range(61)]
    with mp.workdps(80):
        am, bm = mp.mpf(p.alpha), mp.mpf(p.beta)
        g0 = mp.gamma(am * bm + 1)
        for n, (nums, den, _) in enumerate(rows):
            want = [g0 * (-1) ** k * mp.binomial(n, k) / mp.gamma(am * k + am * bm + 1)
                    for k in range(n + 1)]
            row = [mp.mpf(c) / den for c in nums]
            assert len(row) == n + 1
            assert all(abs(c - w) <= mp.mpf("1e-50") * abs(w) for c, w in zip(row, want)), n


@pytest.mark.parametrize("alpha, beta", [(0.41, 1.3), (0.5, 1.0), (1.0 / math.sqrt(2.0), 0.3)])
def test_double_double_g_is_the_correct_rounding_of_g(alpha, beta, monkeypatch):
    # face "g" is hi = fl(g_k), lo = fl(g_k - hi) of the g_k of gammas at
    # exact arguments, with the same bits whether the exact tier (at 300
    # bits) or the double-double tier formed the g_k row first
    p = make_params(alpha, beta)
    faces = []
    for first in (lambda: eg._exact(p, 200, 300), lambda: None):
        monkeypatch.setattr(core, "_tables", type(core._tables)())
        first()
        eg._dd_args(p, [200], 1.0)
        faces.append(core.coeff_faces("P", p)["g"])
    assert [a.tobytes() for a in faces[0]] == [a.tobytes() for a in faces[1]]
    hi, lo = faces[0]
    assert hi.size == 201
    with mp.workdps(60):
        am, bm = mp.mpf(alpha), mp.mpf(beta)
        g0 = mp.gamma(am * bm + 1)
        for k in range(201):
            g = g0 / mp.gamma(am * k + am * bm + 1)
            assert hi[k] == float(g) and lo[k] == float(g - float(g)), k


@pytest.mark.parametrize("N", [12, 40, 200])
def test_p_coeffs_bitwise_scalar_formula(N):
    # the array expression performs the per-entry operations of the formula
    # in the same order, so every coefficient is bitwise the scalar one
    for alpha, beta in ((0.5, 1.0), (1.0 / 3.0, 2.0), (0.41, 1.3), (1.0, 0.0)):
        p = make_params(alpha, beta)
        a, b = alpha, beta
        lg0 = gammaln(a * b + 1.0)
        want = np.zeros((N + 1, N + 1))
        for n in range(N + 1):
            for k in range(n + 1):
                lbin = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
                want[n, k] = (-1) ** k * np.exp(lg0 + lbin - gammaln(a * k + a * b + 1.0))
        assert eg.p_coeffs(p, N).coeff.tobytes() == want.tobytes(), (alpha, beta)


_ARRAY_XS = np.linspace(0.05, 9.5, 40)


@pytest.mark.parametrize("alpha, beta, precision", [
    (0.5, 1.0, "double"), (0.5, 1.0, "ext128"), (0.75, 0.5, "double"), (1.0, 0.7, "double")])
def test_p_eval_array_equals_scalar_calls(alpha, beta, precision):
    # the grid reaches the escalated points (n >= 20 at alpha = 1/2 past x of
    # about 1, n = 40 at x = 9.5); at ext128 every point escalates
    p = make_params(alpha, beta, precision)
    seq = eg.p_coeffs(p, 40)
    for n in (0, 1, 6, 20, 40):
        for d in (0, 1, 2):
            got = eg.p_eval(seq, n, _ARRAY_XS, d)
            want = [eg.p_eval(seq, n, float(x), d) for x in _ARRAY_XS]
            assert got.shape == _ARRAY_XS.shape
            assert got.tolist() == want, (n, d)


def test_p_eval_keeps_the_shape_of_x(p_half):
    # P_40 at x = 9.5 escalates: its value is written back into the array
    seq = eg.p_coeffs(p_half, 40)
    xs = np.linspace(0.1, 9.5, 12).reshape(3, 4)
    for d in (0, 2):
        two_d = eg.p_eval(seq, 40, xs, d)
        assert two_d.shape == (3, 4)
        assert two_d.ravel().tolist() == [eg.p_eval(seq, 40, float(x), d) for x in xs.ravel()]
        zero_d = eg.p_eval(seq, 40, np.array(9.5), d)
        assert zero_d.shape == () and float(zero_d) == eg.p_eval(seq, 40, 9.5, d)
    assert type(eg.p_eval(seq, 40, 9.5)) is float
    assert type(eg.p_eval(seq, 40, 0.5, 2)) is float
    assert eg.p_eval(seq, 1, xs, 2).shape == (3, 4)     # p > n: zeros of x's shape
    classical = eg.p_coeffs(make_params(1.0, 0.7), 3)
    assert eg.p_eval(classical, 0, xs).shape == (3, 4)


def test_p_sup_is_the_grid_max_of_scalar_calls(p_half):
    seq = eg.p_coeffs(p_half, 20)
    want = max(abs(eg.p_eval(seq, 20, float(x))) for x in np.linspace(0.0, 10.0, 33))
    assert eg.p_sup(p_half, 20) == want


def test_shifted_parameters_built_once(p_half, monkeypatch):
    built = []
    monkeypatch.setattr(eg, "make_params", lambda *a: built.append(a) or make_params(*a))
    eg._shifted.cache_clear()
    seq = eg.p_coeffs(p_half, 8)
    for x in (0.3, 1.1, 2.9):
        for d in (1, 2):
            eg.p_eval(seq, 8, x, d)
    assert built == [(0.5, 2.0, p_half.precision, p_half.eps),
                     (0.5, 3.0, p_half.precision, p_half.eps)]


def test_p_coeffs_slices_one_read_only_table():
    # one float64 table per params, grown in N: smaller orders are its
    # leading block, not tables of their own
    p = make_params(0.5173, 0.91)
    big = eg.p_coeffs(p, 30)
    small = eg.p_coeffs(p, 12)
    assert np.shares_memory(small.coeff, big.coeff)
    assert small.coeff.tolist() == big.coeff[:13, :13].tolist()
    assert small.logmag.tolist() == big.logmag[:13, :13].tolist()
    for a in (big.coeff, big.logmag, small.coeff, small.logmag):
        assert not a.flags.writeable
    grown = eg.p_coeffs(p, 50)
    assert grown.coeff[:31, :31].tobytes() == big.coeff.tobytes()
    assert np.shares_memory(eg.p_coeffs(p, 40).coeff, grown.coeff)
    assert not (grown.coeff.flags.writeable or grown.logmag.flags.writeable)
    # grown by the rows of its new orders, it holds the bits of one build
    core._tables.pop(("P", p))
    eg.p_coeffs.cache_clear()
    once = eg.p_coeffs(p, 50)
    assert not np.shares_memory(once.coeff, grown.coeff)
    assert grown.coeff.tobytes() == once.coeff.tobytes()
    assert grown.logmag.tobytes() == once.logmag.tobytes()


def test_p_eval_past_the_double_range_of_binomials(monkeypatch):
    # at n = 1100 the binomials of P_n pass 2^1024; the double-double rows
    # must not raise on them but pass each point on to the exact tier.  On
    # the grid of `glspec eval P` (cond 2^94 at x = 0.1 to 2^1068 at 4.6)
    # each value equals a 400-digit sum, and each point takes at most two
    # passes: a second is sized from the loss the first measured
    from glspec import specfun as sf
    p, n, xs = make_params(0.5, 1), 1100, (0.1 + 0.5 * np.arange(10)).tolist()
    escalated, passes = [], []
    horner_exact, exact_args = sf._horner_exact, eg._exact_args
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    monkeypatch.setattr(eg, "_exact_args", lambda *a: passes.append(a[2]) or exact_args(*a))
    assert np.isnan(eg._dd_args(p, [n], 1.0)[0][0][0]).any()
    seq = eg.p_coeffs(p, n)
    got = [eg.p_eval(seq, n, x) for x in xs]
    assert escalated == [0] * len(xs)
    assert max(passes.count(x) for x in xs) <= 2
    with mp.workdps(400):
        am, ab = mp.mpf(p.alpha), mp.mpf(p.alpha) * p.beta
        row = [(-1) ** k * math.comb(n, k) * mp.gamma(ab + 1) / mp.gamma(am * k + ab + 1)
               for k in range(n + 1)][::-1]
        want = [float(mp.polyval(row, mp.mpf(x))) for x in xs]
    assert got == want


def test_numpy_integer_orders():
    # an np.int64 order is taken as the plain int it indexes: it builds the
    # exact binomials of P_n in Python integers, not in int64 (which wraps
    # past n = 62), so a later plain-int call meets right ones under the
    # same face key; and W_n's denominator (A Db)^(n + q) is no int64 power
    # that raises a bare OverflowError
    from glspec import coeigen as ce
    p, n = make_params(2.0 / 3.0, 0.0), 70
    core._tables.pop(("P", p), None)
    seq = eg.p_coeffs(p, np.int64(n))
    assert type(seq.degree) is int
    first = eg.p_eval(seq, np.int64(n), 1.6)
    with mp.workdps(120):
        am = mp.mpf(p.alpha)
        row = [(-1) ** k * math.comb(n, k) / mp.gamma(am * k + 1) for k in range(n + 1)][::-1]
        want = [float(mp.polyval(row, mp.mpf(x))) for x in (1.6, 0.8)]
    assert first == pytest.approx(want[0], rel=1e-12)
    assert eg.p_eval(seq, n, 0.8) == pytest.approx(want[1], rel=1e-12)
    q = make_params(0.5, 1.0)
    assert ce.w_eval(q, np.int64(n), 4.0) == ce.w_eval(q, n, 4.0)
    assert ce.r_eval_bell(q, np.int64(n), 4.0) == ce.r_eval_bell(q, n, 4.0)
    assert ce.r_coeffs(q, np.int64(n)).tolist() == ce.r_coeffs(q, n).tolist()


def test_kernel_basis_reads_p_rows_to_the_orders_it_reaches(monkeypatch):
    # P's float64 table is read up to the chunk's last order, not built to
    # the kernel sum's cap of 200 orders up front
    from glspec import semigroup as sg
    monkeypatch.setattr(core, "_tables", type(core._tables)())
    eg.p_coeffs.cache_clear()
    p = make_params(0.5, 1.0)
    sg.heat_kernel(p, 1.0, 1.0, 1.0)
    assert core._tables[("P", p)]["coeff"].degree < 200


def test_p_basis_float_tier_is_each_rows_own_pass(p_half):
    # the block Horner over a chunk's padded rows gives each order the sum,
    # mag and keep test of its own row's pass; at x = 1e200 the pass
    # overflows from n = 2 on, which leaves P_0 and P_1 kept, turns no other
    # order into a kept value, and the higher tiers give p_eval's value
    from glspec import specfun as sf
    seq = eg.p_coeffs(p_half, 40)
    for x in (-2.0, 0.7, 3.5, 30.0):
        basis = eg._PBasis(p_half, x).basis
        for lo, hi in ((0, 15), (16, 31), (32, 40)):
            sf._basis_values([(basis, lo, hi)])
            for n in range(lo, hi + 1):
                s, mag = sf._horner_float(seq.coeff[n, :n + 1], x)
                kept = s != 0.0 and mag / abs(s) <= core.COND_THRESHOLD
                assert basis.kept[n - lo] == kept, (x, n)
                if kept:
                    assert basis.sum(n) == s, (x, n)
                else:
                    assert basis.sum(n) == eg.p_eval(seq, n, x), (x, n)
    x, seq = 1e200, eg.p_coeffs(p_half, 20)
    basis = eg._PBasis(p_half, x).basis
    sf._basis_values([(basis, 0, 15)])
    assert basis.kept == [True, True] + [False] * 14
    assert [basis.sum(0), basis.sum(1)] == [1.0, eg.p_eval(seq, 1, x)]
    for n in (2, 3, 15):
        assert basis.sum(n) == eg.p_eval(seq, n, x)
