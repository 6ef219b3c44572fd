import cmath
import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec.core import COND_THRESHOLD, DomainError, PoleError, make_params
from glspec import specfun as sf

from oracles import (bell_args, bell_partitions, bell_table, binet_log_gamma,
                     euler_2f1, frak_I_mp, g_kernel_integral, p_coeffs_mp,
                     r_coeffs_bell_mp, wright_series_mp)


# --------------------------------------------------------------------------
# log-gamma
# --------------------------------------------------------------------------

def test_log_gamma_trivial_values():
    assert abs(sf.log_gamma(1.0)) < 1e-14
    assert sf.log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)),
                                                   rel=1e-14)


def test_log_gamma_against_binet_oracle():
    # frozen from the 80-digit Stirling/Binet oracle
    ref = -1.7566267846037842 + 4.742664438034658j
    got = sf.log_gamma(3 + 4j)
    assert abs(got - ref) <= 1e-13 * abs(ref)
    for z in (12.3 - 7.0j, -5.2 + 2.1j, 0.25 + 0.0j, -2.5 - 130.0j):
        ref = binet_log_gamma(z)
        got = sf.log_gamma(z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), z


def test_log_gamma_recurrence_grid():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-8, 8, size=(100, 2))
    for re, im in zs:
        z = complex(re, im)
        if abs(im) < 1e-3 and re <= 0.5:
            continue
        lhs = cmath.exp(sf.log_gamma(z + 1.0))
        rhs = z * cmath.exp(sf.log_gamma(z))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            sf.log_gamma(z)
    assert sf.rgamma_c(-3.0) == 0.0


def test_log_gamma_large_modulus():
    ref = binet_log_gamma(1e6 + 0.0j)
    assert abs(sf.log_gamma(1e6) - ref) <= 1e-14 * abs(ref)


def test_log_gamma_and_rgamma_against_mpmath():
    # the principal branch of mpmath's loggamma everywhere, including the
    # left half plane near the real axis (3.3e-15 at worst); 1/Gamma to
    # 1e-13 (4.2e-14; 1.6e-13 with the former Lanczos sum and reflection)
    rng = np.random.default_rng(5)
    zs = [complex(r, i) for r, i in zip(rng.uniform(-30, 30, 600), rng.uniform(-30, 30, 600))]
    zs += [complex(r, i) for r, i in zip(rng.uniform(-10, 10, 300), rng.uniform(-1, 1, 300))]
    zs += [complex(r) for r in rng.uniform(-20, 40, 200)]
    with mp.workdps(40):
        for z in zs:
            ref = complex(mp.loggamma(z))
            assert abs(sf.log_gamma(z) - ref) <= 1e-14 * max(1.0, abs(ref)), z
            ref = complex(mp.rgamma(z))
            assert abs(sf.rgamma_c(z) - ref) <= 1e-13 * abs(ref), z


# --------------------------------------------------------------------------
# The generator's kernel gt
# --------------------------------------------------------------------------

def _grid_nodes(a):
    """The generator grid's nodes v, weights and log delta = s log v."""
    from glspec.semigroup import _tanh_sinh_nodes
    s = 1.0 / (1.0 - a)
    v, wv = _tanh_sinh_nodes()
    return s, v, wv, s * np.log(v)


def test_generator_grid_against_mpmath():
    # weighted gt of the grid against mpmath at the grid's own float delta,
    # judged against the integral's scale sum |w gt|.  The reference takes
    # Euler's transformation (DLMF 15.8.1), gt = alpha / (c Gamma(1-alpha))
    # z^c w^-alpha 2F1(1, c - alpha; c + 1; z), whose 2F1 is continuous at
    # z = 1, with w = -expm1(log1p(-delta) / alpha) at 50 digits: so a z that
    # rounds to 1 (delta far below 1e-50 at alpha >= 0.96) costs the
    # reference no digit.  Where w > 1/2, gt is a sum of positive terms, and
    # each value is also held to its own size, down to those of y ~ 1e-16.
    from glspec.semigroup import _generator_grid
    worst, worst_far = {}, {}
    for a in (0.1, 1 / 3, 0.5, 0.9, 0.95, 0.99, 0.999):
        s, v, wv, log_delta = _grid_nodes(a)
        for b in (0.0, 1.0, 2.5):
            y, gw = _generator_grid(make_params(a, b))
            ref, y_ref, far = [], [], []
            with mp.workdps(50):
                am, c = mp.mpf(a), a * (mp.mpf(b) + 1) + 1
                pref = am / (c * mp.gamma(1 - am))
                for ld, vi, wi in zip(log_delta.tolist(), v.tolist(), wv.tolist()):
                    delta = mp.exp(ld)
                    log_z = mp.log1p(-delta) / am
                    w = -mp.expm1(log_z)
                    gt = pref * mp.exp(c * log_z) * w ** -am * mp.hyp2f1(1, c - am, c + 1, 1 - w)
                    ref.append(float(gt * s * wi * delta / vi))
                    y_ref.append(float(1 - delta))
                    far.append(w > 0.5)
            ref, far = np.array(ref), np.array(far) & (np.abs(ref) > 1e-290)
            assert np.all(np.abs(y - y_ref) <= 2.3e-16 * np.array(y_ref)), (a, b)
            worst[a, b] = float(np.abs(gw - ref).max() / np.abs(ref).sum())
            worst_far[a, b] = float(np.abs(gw[far] / ref[far] - 1.0).max())
    assert max(worst.values()) <= 1e-13, worst
    assert max(worst_far.values()) <= 1e-12, worst_far


def _grid_2f1(a, b):
    """The grid's kernel as its 2F1: gt = alpha / (c Gamma(1-alpha)) z^c
    2F1(c, alpha+1; c+1; z), solved for the 2F1 at each node, with the
    node's log delta, w = 1 - z and z."""
    from glspec.semigroup import _generator_grid
    s, v, wv, log_delta = _grid_nodes(a)
    y, gw = _generator_grid(make_params(a, b))
    gt = gw / (s * wv * np.exp(log_delta) / v)
    c = a * (b + 1.0) + 1.0
    log_z = np.log1p(-np.exp(log_delta)) / a
    z = np.exp(log_z)
    return log_delta, -np.expm1(log_z), z, gt * c * math.gamma(1.0 - a) / (a * z ** c)


def test_2f1_w1_against_mpmath():
    # the generator kernel's instances 2F1(c, alpha + 1; c + 1; 1 - w),
    # c = alpha (beta + 1) + 1, on the grid's connection-formula side, at
    # the nodes nearest w = 1e-14 ... 1/2, where 1 - w loses w's digits;
    # the reference is taken at the node's own float log delta at 50 digits
    for a in (0.1, 0.25, 0.5, 0.75, 0.9):
        for b in (0.0, 1.0, 2.5):
            c = a * (b + 1.0) + 1.0
            log_delta, w, _, f21 = _grid_2f1(a, b)
            near = np.flatnonzero(w <= 0.5)
            for t in (1e-14, 1e-8, 1e-4, 0.01, 0.2, 0.5):
                i = near[np.argmin(np.abs(np.log(w[near] / t)))]
                assert abs(math.log(w[i] / t)) < 1.0, (a, b, t)
                with mp.workdps(50):
                    z = mp.exp(mp.log1p(-mp.exp(float(log_delta[i]))) / a)
                    ref = float(mp.hyp2f1(c, a + 1.0, c + 1.0, z))
                assert f21[i] == pytest.approx(ref, rel=1e-12), (a, b, w[i])
    from glspec.semigroup import _generator_grid
    with pytest.raises(DomainError):       # integer c - a - b = -alpha
        _generator_grid(make_params(1.0, 0.0))


def test_2f1_connection_region_euler_oracle():
    # the kernel's 2F1(c, alpha + 1; c + 1; z) for z in the connection
    # region (z >= 1/2), against the Euler-integral oracle at 40 digits
    for a, b in ((0.5, 1.0), (0.25, 2.5), (0.9, 0.0)):
        c = a * (b + 1.0) + 1.0
        _, w, z, f21 = _grid_2f1(a, b)
        for t in (0.6, 0.85, 0.93, 0.99):
            i = int(np.argmin(np.abs(z - t)))
            assert w[i] <= 0.5 and abs(z[i] - t) < 0.05, (a, b, t)
            want = euler_2f1(c, a + 1.0, c + 1.0, float(z[i]))
            assert f21[i] == pytest.approx(want, rel=1e-11), (a, b, z[i])


def test_g_assembly_against_integral_oracle():
    # the grid's gt against quadrature of its defining integral:
    # Gamma(1-alpha) gt(y) = Int_0^y r^(beta+1/alpha) (1 - r^(1/alpha))^(-alpha-1) dr,
    # at nodes on both sides of w = 1 - y^(1/alpha) = 1/2
    from glspec.semigroup import _generator_grid
    for a, b in ((0.5, 1.0), (0.9, 0.0)):
        s, v, wv, log_delta = _grid_nodes(a)
        y, gw = _generator_grid(make_params(a, b))
        gt = gw / (s * wv * np.exp(log_delta) / v)
        w = 1.0 - y ** (1.0 / a)
        for i in (int(np.argmin(np.abs(w - t))) for t in (0.1, 0.4, 0.6, 0.9)):
            want = g_kernel_integral(a, b, float(y[i])) / math.gamma(1.0 - a)
            assert gt[i] == pytest.approx(want, rel=1e-11), (a, b, w[i])


# --------------------------------------------------------------------------
# Wright-type series and entire auxiliaries
# --------------------------------------------------------------------------

def test_wright_n0_is_exp():
    for z in (-10.0, -2.5, 0.3, 7.0):
        r = wright_series_mp(0.5, 1.0, 0, z)
        assert r.real == pytest.approx(math.exp(z), rel=1e-12)


def test_wright_direct_sum_oracle():
    # sum (k+1)(k+2)(-1)^k / k!
    direct = sum((k + 1) * (k + 2) * (-1.0) ** k / math.factorial(k)
                 for k in range(60))
    r = wright_series_mp(1.0, 0.0, 2, -1.0)
    assert r.real == pytest.approx(direct, rel=1e-12)


def test_wright_highprec_oracle():
    # frozen from the 80-digit direct summation (equals -exp(-2) here)
    r = wright_series_mp(0.5, 1.0, 1, -2.0)
    assert r.real == pytest.approx(-0.1353352832366127, rel=1e-11)


def test_frak_I_trivial_and_bessel():
    b, a = 1.0, 0.5
    assert frak_I_mp(a, b, 0.0) == pytest.approx(1.0 / math.gamma(b + 1.0 / a), rel=1e-14)
    from scipy.special import iv
    for x in (0.5, 2.0, 7.0):
        assert frak_I_mp(1.0, 0.0, x) == pytest.approx(
            float(iv(0, 2.0 * math.sqrt(x))), rel=1e-12)


def test_cal_I_trivial_and_bessel(p_half):
    assert sf.cal_I(p_half, 0.0) == 1.0
    from scipy.special import iv
    for p1 in (make_params(1, 0), make_params(1, 0, precision="ext128")):
        for x in (0.5, 2.0, 7.0):
            assert sf.cal_I(p1, x) == pytest.approx(
                float(iv(0, 2.0 * math.sqrt(x))), rel=1e-12)


def test_cal_I_growth_envelope(p_half):
    # positive coefficients: max modulus on |z| = r is attained at z = r
    n, x = 40, 1.0
    val = sf.cal_I(p_half, n * x)
    assert 0 < val <= math.exp(p_half.frak_t * (n * x) ** (1.0 / 1.5))


def test_cal_I_rejects_negative_argument(p_half):
    # the float64 sum is of positive terms; at z < 0 they alternate
    with pytest.raises(DomainError):
        sf.cal_I(p_half, -1.0)


# --------------------------------------------------------------------------
# Bell table (the oracle behind the R_n coefficient checks of test_coeigen)
# --------------------------------------------------------------------------

def test_bell_args_ratio_identity(p_half):
    a = bell_args(0.5, 4)
    assert a[1] == pytest.approx(-2.0)          # = -1/alpha
    assert a[2] == pytest.approx(-2.0 * (1.0 - 2.0))
    assert a[3] == pytest.approx(a[2] * (2.0 - 2.0))


def test_bell_identities(p_half):
    bt = bell_table(p_half, 5)
    a = bt.args
    for k in range(1, 6):
        assert bt.B(k, k) == pytest.approx(a[1] ** k, rel=1e-13)
        assert bt.B(k, 1) == pytest.approx(a[k], rel=1e-13)


def test_bell_against_partition_enumeration(p_half):
    bt = bell_table(p_half, 6)
    a = list(bt.args)
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert bt.B(k, j) == pytest.approx(
                bell_partitions(k, j, a), rel=1e-12, abs=1e-12), (k, j)
    # spec'd example: B_{3,2} = 3 a_1 a_2
    assert bt.B(3, 2) == pytest.approx(3.0 * a[1] * a[2], rel=1e-13)


def test_bell_table_domain():
    with pytest.raises(DomainError):
        bell_table(make_params(1, 0), 3)
    with pytest.raises(DomainError):
        bell_table(make_params(0.5, 1), 0)


# --------------------------------------------------------------------------
# escalating Horner on arrays
# --------------------------------------------------------------------------

def test_escalating_horner_array_log_form_and_cond_max(p_half):
    # P_20 at alpha = 1/2: float64 below x of about 1, escalated past it
    from glspec.eigen import _dd_args, _exact_args, p_coeffs
    cs = p_coeffs(p_half, 20).coeff[20]
    ys = np.linspace(0.1, 9.0, 25)
    dd_args, exact_args = partial(_dd_args, p_half), partial(_exact_args, p_half)
    run = lambda y, **kw: sf._escalating_horner(cs, y, p_half, 20, y, dd_args, exact_args, **kw)
    sign, lv = run(ys, log=True)
    for i, y in enumerate(ys.tolist()):
        s1, l1 = run(y, log=True)
        assert sign[i] == s1 and lv[i] == pytest.approx(l1, rel=1e-15, abs=1e-15)
    # a tighter cond_max sends more points past the float64 pass, to the
    # double-double tier and beyond it to the exact tier, each then right
    # to 1e-15
    with mp.workdps(60):
        exact = [float(mp.polyval(p_coeffs_mp(p_half, 20, 60)[::-1], mp.mpf(y))) for y in ys]
    loose = run(ys)
    tight = run(ys, cond_max=1.0)
    np.testing.assert_allclose(tight, exact, rtol=1e-15)
    assert np.max(np.abs(loose / exact - 1.0)) <= COND_THRESHOLD * 1e-15


# --------------------------------------------------------------------------
# the double-double tier of the escalating Horner
# --------------------------------------------------------------------------

_TIER_PAIRS = ((0.5, 1.0), (0.75, 0.5), (2.0 / 3.0, 0.0), (0.41, 1.3))


def _tier_case(family, p, n):
    """(float64 row, points y, values from the production route, mpmath row
    at the working precision) for P_n, R_n or the sum of W_n^(1), whose
    points are y = x (P) or x^(1/alpha) (R, W)."""
    from glspec import coeigen as ce
    from glspec import eigen as eg
    a = p.alpha
    if family == "P":
        xs = np.geomspace(0.05, 30.0, 60)
        seq = eg.p_coeffs(p, n)
        return seq.coeff[n], xs, eg.p_eval(seq, n, xs), lambda: p_coeffs_mp(p, n, mp.mp.dps), xs
    xs = np.geomspace(0.05, 12.0, 60)
    ys = np.power(xs, 1.0 / a)
    if family == "R":
        d, got = ce._w_coeffs(p, n, 0), ce.r_eval_bell(p, n, xs)
    else:
        d = ce._w_coeffs(p, n, 1)
        got = sf._escalating_horner(d[0], ys, p, n, xs, partial(ce._dd_args, p, 1),
                                    partial(ce._exact_args, p, 1))
    nums, den = ce._exact(p, n, 0 if family == "R" else 1)
    return d[0], ys, got, lambda: [mp.fdiv(c, den) for c in nums], xs


@pytest.mark.parametrize("family", ["P", "R", "W1"])
def test_double_double_tier_accuracy(family, monkeypatch):
    # every point past COND_THRESHOLD goes to the double-double tier; each
    # value it keeps is right to 2.3e-16 against a 100-digit sum, and each it
    # passes on (true cond past about 1e16) reaches the exact tier
    escalated = []
    horner_exact = sf._horner_exact
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    kept_conds, exact_conds = [], []
    for alpha, beta in _TIER_PAIRS:
        p = make_params(alpha, beta)
        for n in (25, 45):
            escalated.clear()
            cs, ys, got, mp_row, xs = _tier_case(family, p, n)
            with np.errstate(over="ignore", invalid="ignore"):
                plain = np.polyval(cs[::-1], ys)
                mag = np.polyval(np.abs(cs[::-1]), ys)
            with mp.workdps(100):
                row = mp_row()[::-1]
                a = 1 / mp.mpf(alpha)
                pts = [mp.mpf(x) if family == "P" else mp.mpf(x) ** a for x in xs]
                exact = [mp.polyval(row, y) for y in pts]
                true_cond = [float(mp.polyval([abs(c) for c in row], y) / abs(v))
                             for y, v in zip(pts, exact)]
            past = ~(mag <= COND_THRESHOLD * np.abs(plain))
            assert set(escalated) <= set(np.flatnonzero(past).tolist())
            for i in np.flatnonzero(past):
                if i in escalated:
                    exact_conds.append(true_cond[i])
                    assert true_cond[i] > 1e15, (alpha, beta, n, xs[i])
                else:
                    kept_conds.append(true_cond[i])
                    assert abs(got[i] - exact[i]) <= 2.3e-16 * abs(exact[i]), \
                        (alpha, beta, n, xs[i], true_cond[i])
                    assert true_cond[i] < 1e17, (alpha, beta, n, xs[i])
    # the grids reach both sides of the tier's bound
    assert min(kept_conds) < 1e9 and max(kept_conds) > 1e15
    assert min(exact_conds) < 1e17 and max(exact_conds) > 1e20


def _chunks(first: int, last: int):
    """The (lo, hi) chunks of orders first..last a kernel sum takes."""
    from glspec.semigroup import _CHUNK
    lo, hi = first, first + 2 * _CHUNK - 1
    while lo <= last:
        yield lo, min(hi, last)
        lo, hi = hi + 1, hi + _CHUNK


@pytest.mark.parametrize("alpha, beta", _TIER_PAIRS)
def test_kernel_bases_and_pointwise_calls_give_one_value(alpha, beta):
    # every order a kernel basis escalates, a chunk of orders at a time as
    # the kernel sums take them, is bitwise the value of p_eval or w_eval,
    # which escalate that order alone
    from glspec import coeigen as ce
    from glspec import eigen as eg
    p, N = make_params(alpha, beta), 63
    seq, escalated = eg.p_coeffs(p, N), 0
    for x in np.geomspace(0.3, 30.0, 40).tolist():
        pb, wb = eg._PBasis(p, x), ce._WBasis(p, x)
        for lo, hi in _chunks(0, N):
            sf._basis_values([(wb.basis, lo, hi), (pb.basis, lo, hi)])
            for n in range(lo, hi + 1):
                if not wb.basis.kept[n - lo]:
                    assert wb.value(n) == ce.w_eval(p, n, x), ("W", x, n)
                    escalated += 1
                if not pb.basis.kept[n - lo]:
                    assert pb.value(n) == eg.p_eval(seq, n, x), ("P", x, n)
                    escalated += 1
    assert escalated >= 1000


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.41, 1.3), (1.0, 0.0), (1.0, 1.5)])
def test_kernel_bases_give_the_bits_of_the_scalar_calls_at_every_derivative(alpha, beta):
    # each value of a kernel basis, kept by the float64 pass or escalated,
    # is bitwise P_n^(p)(x) of p_eval and W_n^(q)(x) of w_eval, p, q <= 2
    from glspec import coeigen as ce
    from glspec import eigen as eg
    p, N = make_params(alpha, beta), 40
    seq = eg.p_coeffs(p, N)
    for x in (0.3, 1.7, 6.0):
        for d in (0, 1, 2):
            pb, wb = eg._PBasis(p, x, d), ce._WBasis(p, x, d)
            sf._basis_values([(wb.basis, d, N), (pb.basis, 0, N - d)])
            for n in range(d, N + 1):
                w, v = wb.value(n), pb.value(n)
                assert w.hex() == ce.w_eval(p, n, x, d).hex(), ("W", x, d, n)
                assert v.hex() == eg.p_eval(seq, n, x, d).hex(), ("P", x, d, n)


@st.composite
def _basis_case(draw):
    alpha = draw(st.one_of(st.sampled_from([1.0, 0.5, 2.0 / 3.0, 3.0 / 7.0]),
                           st.floats(0.35, 1.0)))
    beta = draw(st.floats(1.0 - 1.0 / alpha, 2.5, exclude_min=True))
    x = math.exp(draw(st.floats(math.log(0.05), math.log(30.0))))
    return alpha, beta, x, draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 1, 2]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_basis_case())
def test_kernel_basis_values_are_the_scalar_calls(case):
    # value(n) of a kernel basis, read a chunk at a time as the kernel sums
    # read it, has the bits of p_eval's P_n^(p)(x) and w_eval's W_n^(q)(x)
    from glspec import coeigen as ce
    from glspec import eigen as eg
    alpha, beta, x, d, q = case
    p, N = make_params(alpha, beta), 63
    seq, pb, wb = eg.p_coeffs(p, N), eg._PBasis(p, x, d), ce._WBasis(p, x, q)
    for lo, hi in _chunks(d, N):
        sf._basis_values([(pb.basis, lo - d, hi - d)])
        for n in range(lo, hi + 1):
            assert pb.value(n).hex() == eg.p_eval(seq, n, x, d).hex(), ("P", n)
    for lo, hi in _chunks(0, N):
        sf._basis_values([(wb.basis, lo, hi)])
        for n in range(lo, hi + 1):
            assert wb.value(n).hex() == ce.w_eval(p, n, x, q).hex(), ("W", n)


def test_horner_float_array_is_its_scalar_calls_bit_for_bit():
    # random rows, rows that overflow to +-inf, and nan, +-0 and inf points;
    # the caller's arrays are left as they were
    rng = np.random.default_rng(7)
    ys = np.concatenate([rng.uniform(-3.0, 3.0, 40),
                         [math.nan, 0.0, -0.0, math.inf, 1e10, -1e10]])
    rows = [rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n) for n in (1, 7, 40, 256)]
    rows += [np.full(40, 1e300), np.resize([1e300, -1e300], 41)]
    for c in rows:
        c_before, y_before = c.copy(), ys.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = sf._horner_float(c, ys)
        want = [sf._horner_float(c, y) for y in ys.tolist()]
        for g, w in zip(got, zip(*want)):
            assert [v.hex() for v in g.tolist()] == [v.hex() for v in w]
        assert c.tobytes() == c_before.tobytes() and ys.tobytes() == y_before.tobytes()
    assert math.isinf(sf._horner_float(rows[-2], 1e10)[0])


def test_horner_float_ragged_pass_is_each_points_own_cut_row():
    # each point of the ragged pass gets the bits of its own row cut at its
    # cut, in any order of the cuts and with overflowing rows; the caller's
    # arrays are left as they were
    rng = np.random.default_rng(11)
    ys = np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0, -0.0, 1e10, -1e10]])
    cut = rng.integers(0, 256, ys.size)
    cut[:3] = 0, 255, 255
    rows = [rng.standard_normal(256) * 10.0 ** rng.uniform(-5, 5, 256), np.full(256, 1e300)]
    for c in rows:
        c_before, y_before, cut_before = c.copy(), ys.copy(), cut.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = sf._horner_ragged(c, ys, cut)
        want = [sf._horner_float(c[:k + 1], y) for k, y in zip(cut.tolist(), ys.tolist())]
        for g, w in zip(got, zip(*want)):
            assert [v.hex() for v in g.tolist()] == [v.hex() for v in w]
        assert c.tobytes() == c_before.tobytes() and ys.tobytes() == y_before.tobytes()
        assert cut.tobytes() == cut_before.tobytes()


def test_array_log_form_is_bitwise_the_scalar_one(p_half):
    # the log form of a sum the float64 tier keeps is math.log's at a point
    # and over an array, also at doubles where numpy's vectorised log
    # rounds apart from libm's
    from glspec import coeigen as ce
    cases = [(ce.r_coeffs(p_half, 12), np.geomspace(0.05, 40.0, 200))]
    cases += [(np.array([float.fromhex(h)]), np.array([1.0, 2.0]))
              for h in ("0x1.1c2010df7fcebp+1", "0x1.cd99629564b07p+0", "0x1.0074536b5f405p+0")]
    for cs, ys in cases:
        run = lambda y: sf._escalating_horner(cs, y, p_half, cs.size - 1, y, None, None,
                                              log=True)
        sign, lv = run(ys)
        for i, y in enumerate(ys.tolist()):
            s1, l1 = run(y)
            assert sign[i] == s1 and lv[i].hex() == l1.hex(), (cs.size, y)


def test_extended_precision_sends_every_point_to_the_exact_tier(monkeypatch):
    from glspec import coeigen as ce
    from glspec.core import EXT128
    escalated = []
    horner_exact = sf._horner_exact
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    monkeypatch.setattr(sf._Tiers, "_dd", None)      # never reached
    xs = np.geomspace(0.05, 12.0, 20)
    ce.r_eval_bell(make_params(0.5, 1.0, EXT128), 30, xs)
    assert escalated == list(range(xs.size))


# --------------------------------------------------------------------------
# the exact tier of the escalating Horner
# --------------------------------------------------------------------------

def _exact_tier_case(family, p, n):
    """(escalating Horner's values, its (signs, logs), 100-digit sums, true
    conds) of P_n or of the polynomial in y = x^(1/alpha) of R_n (W0) or
    W_n^(q) (Wq), the reference rows from gammas (P) or from the Bell
    oracle of R_n and the q-recurrence in mpmath."""
    from glspec import coeigen as ce
    from glspec import eigen as eg
    a = p.alpha
    if family == "P":
        xs = np.geomspace(0.2, 100.0, 40)
        cs = eg.p_coeffs(p, n).coeff[n]
        run = lambda log: sf._escalating_horner(
            cs, xs, p, n, xs, partial(eg._dd_args, p), partial(eg._exact_args, p), log=log)
        with mp.workdps(100):
            am, ab = mp.mpf(a), mp.mpf(a) * p.beta
            row = [(-1) ** k * math.comb(n, k) * mp.gamma(ab + 1) / mp.gamma(am * k + ab + 1)
                   for k in range(n + 1)]
            pts = [mp.mpf(x) for x in xs]
    else:
        q, xs = int(family[1]), np.geomspace(0.2, 40.0, 40)
        d = ce._w_coeffs(p, n, q)
        run = lambda log: sf._escalating_horner(
            d[0], np.power(xs, 1.0 / a), p, n, xs, partial(ce._dd_args, p, q),
            partial(ce._exact_args, p, q), log=log)
        row = r_coeffs_bell_mp(p, n, dps=100)
        with mp.workdps(100):
            am = mp.mpf(a)
            ba = mp.mpf(p.beta) + 1 / am - 1
            for k in range(q):
                row = [(ba - k + j / am) * (row[j] if j < len(row) else 0)
                       - (row[j - 1] / am if j else 0) for j in range(len(row) + 1)]
            pts = [mp.mpf(x) ** (1 / am) for x in xs]
    with mp.workdps(100):
        ref = [mp.polyval(row[::-1], y) for y in pts]
        cond = [float(mp.polyval([abs(c) for c in row[::-1]], y) / abs(v))
                for y, v in zip(pts, ref)]
        logs = [float(mp.log(abs(v))) for v in ref]
    return run(False), run(True), [float(v) for v in ref], logs, cond


@pytest.mark.parametrize("alpha, beta, precision", [
    (0.5, 1.0, "double"),                     # exact point y = x^2
    (1.0 / 3.0, 2.0, "double"),               # binary 1/3: y rounded
    (1.0 / math.sqrt(2.0), 0.3, "double"),    # an irrational pair
    (0.75, 0.5, "ext128")], ids=["half", "third", "irrational", "ext128"])
def test_exact_tier_values_are_the_rounded_hundred_digit_sums(alpha, beta, precision,
                                                                monkeypatch):
    # every point that reaches the exact tier (true cond past about 1e16, or
    # every point at extended precision) gives the float64 rounding of a
    # 100-digit sum, and in log form the rounding of its log
    escalated = []
    horner_exact = sf._horner_exact
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    p = make_params(alpha, beta, precision)
    top = {}
    for family, n in (("P", 70), ("W0", 50), ("W1", 50), ("W2", 50)):
        escalated.clear()
        got, (signs, logs), want, want_logs, cond = _exact_tier_case(family, p, n)
        reached = sorted(set(escalated))
        if precision == "double":
            assert all(cond[i] > 1e15 for i in reached) and len(reached) >= 5, family
        else:
            assert reached == list(range(len(cond)))
        for i in reached:
            if cond[i] <= 1e60:
                assert got[i] == want[i], (family, i, cond[i])
                assert (signs[i], logs[i]) == (math.copysign(1.0, want[i]), want_logs[i])
                top[family] = max(top.get(family, 0.0), cond[i])
    assert top["P"] > 1e30 and min(top.values()) > 1e20


@pytest.mark.parametrize("alpha, beta, precision", [
    (1.0 / math.sqrt(2.0), 0.3, "double"),    # y rounded, W rows exact
    (0.75, 0.5, "ext128")], ids=["irrational", "ext128"])
def test_exact_tier_cut_below_the_inputs_width_takes_more_passes(alpha, beta, precision,
                                                                  monkeypatch):
    # a cut pass 40 bits narrower than its inputs loses more than the
    # pass-end test allows: the tier asks for more bits until it passes, and
    # each value is still the float64 rounding of a 100-digit sum
    from glspec import coeigen as ce
    from glspec import core
    p = make_params(alpha, beta, precision)
    escalated, passes = [], []
    horner_exact, cut_horner, cut_width = sf._horner_exact, sf._cut_horner, sf._cut_width
    monkeypatch.setattr(sf, "_horner_exact",
                        lambda *a: escalated.append(a[3]) or horner_exact(*a))
    monkeypatch.setattr(sf, "_cut_horner", lambda *a: passes.append(a[3]) or cut_horner(*a))
    counts = {}
    for narrow in (False, True):
        if narrow:
            monkeypatch.setattr(sf, "_cut_width", lambda known, nb: cut_width(known, nb) - 40)
        for family, n in (("P", 70), ("W0", 50), ("W1", 50)):
            # inputs from cold tables and points, as wide as this run asks for
            monkeypatch.delitem(core._tables, ("P", p), raising=False)
            ce._point.cache_clear()
            escalated.clear()
            passes.clear()
            got, (signs, logs), want, want_logs, cond = _exact_tier_case(family, p, n)
            counts[family, narrow] = len(passes)
            checked = [i for i in set(escalated) if cond[i] <= 1e60]
            assert len(checked) >= 5, family
            for i in checked:
                assert got[i] == want[i], (family, narrow, i, cond[i])
                assert (signs[i], logs[i]) == (math.copysign(1.0, want[i]), want_logs[i])
    for family in ("P", "W0", "W1"):
        assert counts[family, True] > counts[family, False] > 0, (family, counts)


def test_cut_horner_bounds_its_error():
    # against exact rationals, at widths far below the sums' own: mag is at
    # least sum |c_j| |y|^j, and the cuts move the sum by at most
    # (n + 1) 2^(1 - w) mag
    from fractions import Fraction
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        nums = [int(v) << int(rng.integers(0, 200)) for v in rng.integers(-2 ** 40, 2 ** 40, n + 1)]
        Y, s = int(rng.integers(-2 ** 50, 2 ** 50)), int(rng.integers(0, 80))
        y = Fraction(Y, 1 << s)
        exact = sum(c * y ** j for j, c in enumerate(nums))
        mag = sum(abs(c) * abs(y) ** j for j, c in enumerate(nums))
        for w in (4, 12, 30, 60):
            acc, m, e = sf._cut_horner(nums, Y, s, w)
            assert m * Fraction(2) ** e >= mag, (trial, w)
            assert abs(acc * Fraction(2) ** e - exact) <= (n + 1) * Fraction(2) ** (1 - w + e) * m
            assert m.bit_length() <= w + 1 or m * Fraction(2) ** e == mag


def test_exact_tier_past_the_cap_raises(monkeypatch):
    # P_1100(2.6) at (1/2, 1) has cond about 2^761, past a cap of 100 digits
    from glspec import eigen as eg
    from glspec.core import PrecisionError
    from glspec import core
    monkeypatch.setattr(sf, "MAX_ESCALATED_DPS", 100)
    p = make_params(0.5, 1.0)
    # from a cold "P" table: rows an earlier test built at more digits would
    # give the first pass the bits it needs, and it would never reach the cap
    monkeypatch.delitem(core._tables, ("P", p), raising=False)
    with pytest.raises(PrecisionError):
        eg.p_eval(eg.p_coeffs(p, 1100), 1100, 2.6)


def test_dd_ratio_past_the_double_range():
    hi, lo = sf._dd_ratio([10 ** 400, -(10 ** 400), 3], 2)
    assert hi.tolist() == [math.inf, -math.inf, 1.5]
    assert math.isnan(lo[0]) and math.isnan(lo[1]) and lo[2] == 0.0


def test_exact_tier_log_form_rounds_the_ratio_once():
    # the log form is float(log q) at 80 bits, q = |acc| / den correctly
    # rounded to 80 bits; at an exact tie 1 + 2^-80 (and its neighbours,
    # and scaled past the double range) taking q unrounded would differ,
    # and just above the tie, by 2^-280, so would q without its sticky bit
    p = make_params(0.5, 1.0)
    cases = [((1 << 80) + t, 1 << 80) for t in (1, -1, 3, 2)]
    cases.append(((((1 << 80) + 1) << 200) + 1, 1 << 280))
    cases += [(3 * ((1 << 80) + 1) << 4000, 3 << 80), (-(5 ** 700), 7 ** 300), (0, 3)]
    for acc, den in cases:
        got = sf._horner_exact(1.0, p, lambda i, bits: ([acc], den, None, 1, 1, None), 0, True)
        with mp.workprec(80):
            want = float(mp.log(mp.fdiv(abs(acc), den)))
        assert got == (-1.0 if acc < 0 else 1.0, want), (acc, den)
    assert sf._horner_exact(1.0, p, lambda i, bits: ([(1 << 80) + 1], 1 << 80, None, 1, 1, None),
                            0, True)[1] == 0.0
