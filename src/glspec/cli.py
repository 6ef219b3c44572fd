"""Command-line front end: tabulation (`glspec eval`) and verification
suites (`glspec verify`).

Output is CSV (17 significant digits, '.' decimal point, ',' delimiter,
header row) or JSON, written to stdout or --out, deterministic for a given
configuration.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 numerical failure.  Grids are evaluated in one thread: mpmath's
working precision is process-global, so concurrent escalations would
overwrite each other's digits.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import asymptotics as asy
from . import coeigen as ce
from . import density as dens
from . import eigen as eig
from . import quad as qd
from . import semigroup as sg
from .core import (DomainError, GlspecError, GLParams, make_params, monomial,
                   parse_precision)
from .specfun import log_gamma

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:step grid, or a comma list, or a single value."""
    try:
        if ":" in spec:
            lo, hi, step = (float(t) for t in spec.split(":"))
            if not step > 0.0:
                raise click.UsageError(f"grid step must be > 0 in {spec!r}")
            n = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return lo + step * np.arange(n)
        if "," in spec:
            return np.array([float(t) for t in spec.split(",")])
        return np.array([float(spec)])
    except ValueError as exc:
        raise click.UsageError(f"cannot parse grid {spec!r}") from exc


def _emit(rows, header, fmt: str, out):
    if fmt == "json":
        payload = [dict(zip(header, r)) for r in rows]
        text = json.dumps(payload, indent=1, sort_keys=True)
    else:
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in r))
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _write(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _params_from(alpha, beta, precision) -> GLParams:
    try:
        return make_params(alpha, beta, parse_precision(precision))
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc


param_options = [
    click.option("--alpha", type=float, default=0.5, show_default=True),
    click.option("--beta", type=float, default=1.0, show_default=True),
    click.option("--precision", type=click.Choice(["double", "ext128", "ext256"]),
                 default="double", show_default=True),
]
out_option = click.option("--out", type=click.Path(), default=None,
                          help="write to this file instead of stdout")


def add_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def main():
    """Tabulation and verification for the generalized Laguerre-type
    semigroup toolkit."""


@main.command("eval")
@click.argument("subject", type=click.Choice(
    ["P", "R", "W", "lambda", "e_ab", "heat", "expand", "K"]))
@add_options(param_options)
@click.option("--quad-order", type=int, default=160, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@out_option
@click.option("--n", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--q", type=click.IntRange(min=0), default=0, show_default=True,
              help="derivative order for W")
@click.option("--x", "xgrid", type=str, default="0.1:5:0.5")
@click.option("--y", "ygrid", type=str, default=None)
@click.option("--z", "zgrid", type=str, default=None)
@click.option("--t", "tval", type=float, default=1.0, show_default=True)
@click.option("--f", "fexpr", type=str, default="p1",
              help="function token for expand: 1, x^K, pK, LK or PK")
def cmd_eval(subject, alpha, beta, precision, quad_order, tol, fmt, out,
             n, q, xgrid, ygrid, zgrid, tval, fexpr):
    """Tabulate the requested object over a grid."""
    params = _params_from(alpha, beta, precision)
    try:
        if subject == "P":
            xs = _parse_grid(xgrid)
            seq = eig.p_coeffs(params, n)
            rows = [(float(x), eig.p_eval(seq, n, float(x))) for x in xs]
            _emit(rows, ["x", f"P_{n}"], fmt, out)
        elif subject == "R":
            xs = _parse_grid(xgrid)
            rows = [(float(x), ce.r_eval_bell(params, n, float(x))) for x in xs]
            _emit(rows, ["x", f"R_{n}"], fmt, out)
        elif subject == "W":
            xs = _parse_grid(xgrid)
            rows = [(float(x), ce.w_eval(params, n, float(x), q)) for x in xs]
            _emit(rows, ["x", f"W_{n}^({q})"], fmt, out)
        elif subject == "lambda":
            zs = _parse_grid(zgrid or "0:10:0.1")
            rows = list(zip(zs.tolist(), dens.lambda_values(params, zs).tolist()))
            _emit(rows, ["z", "lambda"], fmt, out)
        elif subject == "e_ab":
            xs = _parse_grid(xgrid)
            rows = [(float(x), dens.weight_eval(params, float(x))) for x in xs]
            _emit(rows, ["x", "e_ab"], fmt, out)
        elif subject == "heat":
            xs = _parse_grid(xgrid)
            ys = _parse_grid(ygrid or "0.1:6:0.1")
            x0 = float(xs[0])
            rows = [(x0, float(y), sg.heat_kernel(params, tval, x0, float(y)))
                    for y in ys]
            mass, _ = sg.heat_kernel_mass(params, tval, x0, qd.build_rule(params, quad_order))
            click.echo(f"# row mass at x={_fmt(x0)}: {_fmt(mass)}", err=True)
            _emit(rows, ["x", "y", "P_t"], fmt, out)
        elif subject == "expand":
            xs = _parse_grid(xgrid)
            f = _parse_fn(params, fexpr)
            rule = qd.build_rule(params, quad_order)
            exp = sg.expand(params, f, tval, rule, tol=tol)
            rows = [(float(x), sg.evaluate_expansion(exp, float(x))) for x in xs]
            _emit(rows, ["x", f"P_t[{fexpr}]"], fmt, out)
        else:  # K
            xs = _parse_grid(xgrid)
            ys = _parse_grid(ygrid or "0.1:6:0.1")
            x0 = float(xs[0])
            rows = [(x0, float(y), sg.selfsimilar_kernel(params, tval, x0, float(y)))
                    for y in ys]
            _emit(rows, ["x", "y", "K_t"], fmt, out)
    except GlspecError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    sys.exit(EXIT_OK)


def _parse_fn(params, token: str):
    token = token.strip()
    if token == "1":
        from .core import const_fn
        return const_fn()
    kind, arg = ("x^", token[2:]) if token.startswith("x^") else (token[:1], token[1:])
    try:
        k = float(arg) if kind in ("x^", "p") else int(arg)
    except ValueError:
        raise click.UsageError(f"cannot parse function token {token!r}") from None
    if kind in ("x^", "p"):
        return monomial(k)
    if kind in ("L", "P") and k < 0:
        raise click.UsageError(f"order must be >= 0 in function token {token!r}")
    if kind == "L":
        cs = [(-1.0) ** j * math.exp(math.lgamma(k + 1) - math.lgamma(j + 1)
                                     - math.lgamma(k - j + 1) - math.lgamma(j + 1))
              for j in range(k + 1)]
        from .core import poly_fn
        return poly_fn(cs)
    if kind == "P":
        return eig.p_fn(params, k)
    raise click.UsageError(f"cannot parse function token {token!r}")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

@main.command("verify")
@click.argument("suite", type=click.Choice(
    ["biorth", "eigen", "intertwine", "mellin", "representations", "bounds",
     "norms", "all"]))
@add_options(param_options)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True,
              help="json: a list of {name, value, bound, pass[, error]}")
@out_option
@click.option("--n", "n_cap", type=click.IntRange(min=0), default=None,
              help="override the suite's matrix/order size")
@click.option("--seed-check", is_flag=True, default=False,
              help="quick smoke subset of 'all'")
def cmd_verify(suite, alpha, beta, precision, fmt, out, n_cap, seed_check):
    """Run a named invariant suite; exit 0 iff every check passes.  A check that
    raises prints an ERROR line ("error" in JSON), the others still run: exit 3."""
    params = _params_from(alpha, beta, precision)
    verdicts = []        # (name, value, bound, pass, error)

    @contextmanager
    def check(name, bound):
        """Record the value the block gives to ``put``, or the GlspecError it raises."""
        try:
            yield lambda v: verdicts.append((name, float(v), bound, float(v) <= bound, None))
        except GlspecError as exc:
            verdicts.append((name, None, bound, False, f"{type(exc).__name__}: {exc}"))

    if suite in ("biorth", "all"):
        with check("biorth ||G-I||_max", 1e-6) as put:
            N = n_cap if n_cap is not None else (4 if seed_check else 8)
            put(np.abs(qd.gram_biorth(params, N) - np.eye(N + 1)).max())
    if suite in ("eigen", "all"):
        with check("eigen max residual/sup", 1e-7) as put:
            nmax = 3 if seed_check else 6
            worst = 0.0
            for n in range(nmax + 1):
                f = eig.p_fn(params, n)
                sup = eig.p_sup(params, max(n, 1))
                grid = np.linspace(0.01, 10.0, 11 if seed_check else 31)
                r = max(abs(sg.generator_apply(params, f, float(x)) + n * f(float(x)))
                        for x in grid) / sup
                worst = max(worst, r)
            put(worst)
    if suite in ("mellin", "all"):
        with check("mellin factorization", 1e-10) as put:
            worst = 0.0
            ss = [complex(re, im) for re in (-0.4, 0.2, 0.7, 1.5, 2.5)
                  for im in (0.0, 0.4, -1.1, 2.0)]
            for s in ss:
                lhs = dens.mellin_lambda(params, s) * dens.mellin_e(params, s)
                rhs = cmath.exp(log_gamma(s + 1.0))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            put(worst)
    if suite in ("representations", "all"):
        with check("representation agreement", 5e-7) as put:
            nmax = 3 if seed_check else 8
            worst = 0.0
            for n in (1, nmax // 2, nmax):
                for x in (0.5, 1.0) if seed_check else (0.1, 0.5, 1.0, 2.0, 5.0):
                    bell = ce.r_eval_bell(params, n, x) * dens.weight_eval(params, x)
                    wt = ce.w_eval(params, n, x)
                    me = ce.w_eval_mellin(params, n, x) if params.alpha < 1 else wt
                    r = max(abs(bell - wt), abs(bell - me)) / max(abs(bell), 1e-300)
                    worst = max(worst, r)
            put(worst)
    if suite in ("intertwine", "all") and not seed_check:
        with check("intertwine p_2", 1e-6) as put:
            put(sg.intertwine_check(params, monomial(2), 1.0, [0.5, 1.0, 2.0])["max_discrepancy"])
    if (suite == "bounds" or suite == "all" and not seed_check) and params.alpha < 1.0:
        for region in ("fixed_x", "middle", "suboptimal", "large"):
            with check(f"bound region {region} ratio40/ratio20", 10.0) as put:
                r20 = asy.bound_region_check(params, 20, region)[0]["ratio"]
                r40 = asy.bound_region_check(params, 40, region)[0]["ratio"]
                put(r40 / max(r20, 1e-300))
    if suite in ("norms",) or (suite == "all" and not seed_check):
        lo, hi = (15, 18) if suite == "all" else (15, 25)
        rep = {}
        for side in ("main", "aux"):
            with check(f"norm envelope slack ({side})", 0.0) as put:
                rep = rep or asy.norm_envelope_check(params, lo, hi)
                put(max(rep[f"{side}_rates"]) - rep[f"{side}_bound"])

    if fmt == "json":
        text = json.dumps([{"name": name, "value": value, "bound": bound, "pass": ok,
                            **({"error": err} if err else {})}
                           for name, value, bound, ok, err in verdicts], indent=1) + "\n"
    else:
        text = "".join(f"ERROR {name}: {err}\n" if err else
                       f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
                       f"(tolerance {bound:.3e})\n"
                       for name, value, bound, ok, err in verdicts)
    _write(text, out)
    sys.exit(EXIT_NUMERICAL if any(err for *_, err in verdicts) else
             EXIT_OK if all(ok for _, _, _, ok, _ in verdicts) else EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
