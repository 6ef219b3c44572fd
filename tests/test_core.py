import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec import coeigen, core, eigen
from glspec.core import (DomainError, Precision, asymp_constants, const_fn,
                         derived_constants, make_params, monomial, parse_precision, phi)

#: each coefficient family's exact row reader (P's at the bits it first holds)
_FAMILIES = {"P": lambda p, n: eigen._exact(p, n, 0), "R": coeigen._exact}


def test_classical_identities():
    p = make_params(1, 0)
    assert p.t_alpha == 0.0
    assert p.d_ab == pytest.approx(1.0, abs=1e-15)
    assert p.beta_alpha == pytest.approx(0.0, abs=1e-15)


def test_d_ab_gamma_oracle():
    # Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
    p = make_params(0.5, 1)
    assert p.d_ab == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)


def test_domain_validation():
    with pytest.raises(DomainError):
        make_params(0.5, -1.5)
    with pytest.raises(DomainError):
        make_params(0.0, 1.0)
    with pytest.raises(DomainError):
        make_params(1.2, 0.0)
    make_params(0.5, -1.0)  # boundary beta = 1 - 1/alpha admitted


def test_d_ab_equals_beta_plus_one_at_alpha_one():
    for b in (0.0, 0.5, 2.0):
        assert make_params(1, b).d_ab == pytest.approx(b + 1.0, rel=1e-14)


def test_t_alpha_value():
    p = make_params(0.5, 1)
    assert p.t_alpha == pytest.approx(math.log(1.0 + math.sqrt(2.0)), rel=1e-15)
    assert p.t_alpha == pytest.approx(0.8813735870195430, rel=1e-13)


def test_frak_t_values():
    p = make_params(0.5, 1)
    assert p.frak_t == pytest.approx(1.5 * 2.0 ** (1.0 / 3.0), rel=1e-15)
    assert p.bar_frak_t == pytest.approx(
        p.frak_t * (3.0 + 0.01) ** (1.0 / 1.5), rel=1e-15)


def test_derived_recompute_agrees_to_ulp():
    for ab in ((0.5, 1.0), (0.75, 0.5), (1.0, 0.0), (0.37, 2.2)):
        p = make_params(*ab)
        d = derived_constants(p.alpha, p.beta, p.eps)
        for k, v in d.items():
            assert getattr(p, k) == v  # identical recomputation path


def test_phi_classical():
    assert phi(make_params(1, 0), 5).real == pytest.approx(5.0, rel=1e-13)
    assert phi(make_params(1, 2), 3).real == pytest.approx(5.0, rel=1e-13)


def test_phi_gamma_oracle():
    # Gamma(2.5)/Gamma(2) = 1.5 * 0.5 * sqrt(pi)
    p = make_params(0.5, 1)
    expect = 1.5 * 0.5 * math.sqrt(math.pi)
    assert phi(p, 2).real == pytest.approx(expect, rel=1e-14)
    assert phi(p, 2).real == pytest.approx(1.3293403881791370, rel=1e-13)


def test_phi_at_one_is_d_ab():
    for ab in ((0.5, 1.0), (0.75, 0.5), (0.31, 3.0), (1.0, 1.5)):
        p = make_params(*ab)
        assert phi(p, 1).real == pytest.approx(p.d_ab, rel=1e-13)


def test_phi_pole_halfplane():
    p = make_params(0.5, 1)
    with pytest.raises(DomainError):
        phi(p, -3.5)


@given(st.floats(0.05, 1.0), st.floats(0.0, 3.0), st.floats(-0.4, 4.0),
       st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_phi_functional_equation(alpha, beta, sr, si):
    # Gamma(a s + a b + 1) = phi(s) Gamma(a s + a b + 1 - a)
    if beta < 1.0 - 1.0 / alpha + 0.05:
        beta = 1.0 - 1.0 / alpha + 0.05
    p = make_params(alpha, beta)
    s = complex(sr, si)
    import cmath
    from glspec.specfun import log_gamma
    lhs = cmath.exp(log_gamma(alpha * s + alpha * beta + 1.0))
    rhs = phi(p, s) * cmath.exp(log_gamma(alpha * s + alpha * beta + 1.0 - alpha))
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_asymp_constants_ordering_alpha_one():
    c = asymp_constants(1.0)
    assert c.A_bar == pytest.approx(4.0)
    assert c.C_bar == pytest.approx(0.0, abs=1e-15)


def test_constant_and_monomial_derivatives_take_arrays():
    # an array in, an array of its shape out, with the scalar calls' values
    x = np.linspace(0.5, 3.0, 6)
    for f in (const_fn(2.0), const_fn(), monomial(0), monomial(1)):
        for g in (f.f, f.d1, f.d2):
            got = g(x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert [v.hex() for v in got.tolist()] == [float(g(float(v))).hex() for v in x]


def test_precision_parsing():
    assert parse_precision("double").is_double
    assert parse_precision("ext128").mantissa_bits == 128
    assert parse_precision("ext256").mantissa_bits == 256
    assert parse_precision("ext64").mantissa_bits == 64
    assert not parse_precision(Precision("extended", 200)).is_double
    for spec in ("floats", "extfoo", "ext", "ext1.5"):
        with pytest.raises(DomainError):
            parse_precision(spec)
    with pytest.raises(DomainError):
        make_params(0.5, 1, "extfoo")


def test_params_hash_and_key_the_tables_by_every_input():
    # the hash, formed once from (alpha, beta, precision, eps), is that of
    # an equal pair made apart and survives a pickle; a pair that differs in
    # eps or precision alone keys tables of its own
    import pickle
    a, b = make_params(0.5, 1.0), make_params(0.5, 1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a) and c.bar_frak_t == a.bar_frak_t
    others = [make_params(0.5, 1.0, eps=0.02), make_params(0.5, 1.0, "ext128")]
    assert all(p != a for p in others)
    faces = [core.coeff_faces("P", p) for p in [a, b, *others]]
    assert faces[0] is faces[1]
    assert len({id(f) for f in faces}) == 3
    assert all(("P", p) in core._tables for p in [a, *others])


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_table_extends_once_per_order(family, monkeypatch):
    # R's exact rows and P's g_k row grow one order at a time as the orders
    # are asked for; R's are never rebuilt, P's row is formed again, from
    # k = 0, once for more bits than it holds, and reused for fewer
    read, p = _FAMILIES[family], make_params(0.61, 0.37)
    core._tables.pop((family, p), None)
    calls = []
    if family == "R":
        extend = coeigen._extend
        monkeypatch.setattr(coeigen, "_extend", lambda rows, params, n: (
            calls.append((len(rows), n)), extend(rows, params, n)))
    else:
        g = eigen._g
        monkeypatch.setattr(eigen, "_g", lambda params, ks: (
            calls.append((ks.start, ks.stop - 1)), g(params, ks))[1])
    for n in range(41):
        read(p, n)
    assert calls == [(n, n) for n in range(41)]
    table = core._tables[(family, p)]
    with mp.workdps(200):
        read(p, 40)
    if family == "R":
        assert len(calls) == 41 and core._tables[(family, p)].rows is table.rows
    else:
        assert table["G"][2:] == (48, 159)
        eigen._exact(p, 40, 200)
        eigen._exact(p, 40, 180)
        assert len(calls) == 42 and calls[-1] == (0, 40) and table["G"][2:] == (64, 212)


def test_tables_held_are_bounded_in_bytes(monkeypatch):
    # exact R rows grow as n^3: past TABLE_BYTES_HELD the least recently
    # used tables are dropped, but never the one just read
    monkeypatch.setattr(core, "_tables", type(core._tables)())
    fresh = [make_params(0.4123456789 + 0.001 * i, 1.37) for i in range(5)]
    coeigen._exact(fresh[0], 30)
    one = core._tables[("R", fresh[0])].size
    assert one > 100_000
    monkeypatch.setattr(core, "TABLE_BYTES_HELD", int(2.5 * one))
    for p in fresh[1:]:
        coeigen._exact(p, 30)
    assert [key[1] for key in core._tables] == fresh[-2:]
    assert sum(t.size for t in core._tables.values()) <= core.TABLE_BYTES_HELD
    monkeypatch.setattr(core, "TABLE_BYTES_HELD", one // 2)
    coeigen._exact(fresh[0], 30)
    assert list(core._tables) == [("R", fresh[0])]


def test_faces_count_in_the_bytes_held(monkeypatch):
    # a table's faces count in its bytes as they are stored: the
    # double-double rows of P_n, faces of a "P" table with no rows, drop
    # the older tables once all hold more than TABLE_BYTES_HELD
    monkeypatch.setattr(core, "_tables", type(core._tables)())
    old = [make_params(0.4123456789 + 0.001 * i, 1.37) for i in range(3)]
    for p in old:
        coeigen.r_coeffs(p, 10)
    held = sum(t.size for t in core._tables.values())
    monkeypatch.setattr(core, "TABLE_BYTES_HELD", held + 50_000)
    p = make_params(0.5, 1.0)
    eigen._dd_args(p, list(range(60)), 1.0)
    table = core._tables[("P", p)]
    assert table.rows == [] and table.size > 50_000
    assert list(core._tables) == [("P", p)]
    # a face stored again counts once, in place of the one it replaces
    size = table.size
    table["C", 59] = table["C", 59]
    assert table.size == size


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_tables_held_are_bounded(family):
    read = _FAMILIES[family]
    fresh = [make_params(0.55 + 0.001 * i, 0.2) for i in range(core.TABLES_HELD + 3)]
    for p in fresh:
        read(p, 3)
    assert len(core._tables) == core.TABLES_HELD
    assert (family, fresh[0]) not in core._tables and (family, fresh[-1]) in core._tables
