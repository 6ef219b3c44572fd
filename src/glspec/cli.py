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

import json
import math
import sys

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
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--q", type=int, default=0, show_default=True,
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
            w = dens.weight_e_ab(params)
            rows = [(float(x), dens.weight_eval(w, float(x))) for x in xs]
            _emit(rows, ["x", "e_ab"], fmt, out)
        elif subject == "heat":
            xs = _parse_grid(xgrid)
            ys = _parse_grid(ygrid or "0.1:6:0.1")
            x0 = float(xs[0])
            rows = [(x0, float(y), sg.heat_kernel(params, tval, x0, float(y)))
                    for y in ys]
            mass, _ = sg.heat_kernel_mass(params, tval, x0,
                                          qd.build_rule(dens.weight_e_ab(params),
                                                        quad_order))
            click.echo(f"# row mass at x={_fmt(x0)}: {_fmt(mass)}", err=True)
            _emit(rows, ["x", "y", "P_t"], fmt, out)
        elif subject == "expand":
            xs = _parse_grid(xgrid)
            f = _parse_fn(params, fexpr)
            rule = qd.build_rule(dens.weight_e_ab(params), quad_order)
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
    if token.startswith("x^"):
        return monomial(float(token[2:]))
    if token.startswith("p"):
        return monomial(float(token[1:]))
    if token.startswith("L"):
        k = int(token[1:])
        cs = [(-1.0) ** j * math.exp(math.lgamma(k + 1) - math.lgamma(j + 1)
                                     - math.lgamma(k - j + 1) - math.lgamma(j + 1))
              for j in range(k + 1)]
        from .core import poly_fn
        return poly_fn(cs)
    if token.startswith("P"):
        return eig.p_fn(params, int(token[1:]))
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
              help="json: a list of {name, value, bound, pass}")
@out_option
@click.option("--n", "n_cap", type=int, default=None,
              help="override the suite's matrix/order size")
@click.option("--seed-check", is_flag=True, default=False,
              help="quick smoke subset of 'all'")
def cmd_verify(suite, alpha, beta, precision, fmt, out, n_cap, seed_check):
    """Run a named invariant suite; exit 0 iff every check passes."""
    params = _params_from(alpha, beta, precision)
    checks = []
    try:
        if suite in ("biorth", "all"):
            N = n_cap if n_cap is not None else (4 if seed_check else 8)
            G = qd.gram_biorth(params, N)
            res = float(np.abs(G - np.eye(N + 1)).max())
            checks.append(("biorth ||G-I||_max", res, 1e-6))
        if suite in ("eigen", "all"):
            nmax = 3 if seed_check else 6
            worst = 0.0
            for n in range(nmax + 1):
                f = eig.p_fn(params, n)
                sup = eig.p_sup(params, max(n, 1))
                grid = np.linspace(0.01, 10.0, 11 if seed_check else 31)
                r = max(abs(sg.generator_apply(params, f, float(x)) + n * f(float(x)))
                        for x in grid) / sup
                worst = max(worst, r)
            checks.append(("eigen max residual/sup", worst, 1e-7))
        if suite in ("mellin", "all"):
            import cmath
            from .specfun import log_gamma
            worst = 0.0
            ss = [complex(re, im) for re in (-0.4, 0.2, 0.7, 1.5, 2.5)
                  for im in (0.0, 0.4, -1.1, 2.0)]
            for s in ss:
                lhs = dens.mellin_lambda(params, s) * dens.mellin_e(params, s)
                rhs = cmath.exp(log_gamma(s + 1.0))
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
            checks.append(("mellin factorization", worst, 1e-10))
        if suite in ("representations", "all"):
            nmax = 3 if seed_check else 8
            w = dens.weight_e_ab(params)
            worst = 0.0
            for n in (1, nmax // 2, nmax):
                for x in (0.5, 1.0) if seed_check else (0.1, 0.5, 1.0, 2.0, 5.0):
                    bell = ce.r_eval_bell(params, n, x) * dens.weight_eval(w, x)
                    wt = ce.w_eval(params, n, x)
                    me = ce.w_eval_mellin(params, n, x) if params.alpha < 1 else wt
                    r = max(abs(bell - wt), abs(bell - me)) / max(abs(bell), 1e-300)
                    worst = max(worst, r)
            checks.append(("representation agreement", worst, 5e-7))
        if suite in ("intertwine", "all") and not seed_check:
            t = 1.0
            rep = sg.intertwine_check(params, monomial(2), t, [0.5, 1.0, 2.0])
            checks.append(("intertwine p_2", rep["max_discrepancy"], 1e-6))
        if suite in ("bounds",) or (suite == "all" and not seed_check):
            if params.alpha < 1.0:
                for region in ("fixed_x", "middle", "suboptimal", "large"):
                    r20 = asy.bound_region_check(params, 20, region)[0]["ratio"]
                    r40 = asy.bound_region_check(params, 40, region)[0]["ratio"]
                    ok_val = r40 / max(r20, 1e-300)
                    checks.append((f"bound region {region} ratio40/ratio20",
                                   ok_val, 10.0))
        if suite in ("norms",) or (suite == "all" and not seed_check):
            lo, hi = (15, 18) if suite == "all" else (15, 25)
            rep = asy.norm_envelope_check(params, lo, hi)
            slack = rep["main_bound"] - max(rep["main_rates"])
            checks.append(("norm envelope slack (main)", -slack, 0.0))
            slack2 = rep["aux_bound"] - max(rep["aux_rates"])
            checks.append(("norm envelope slack (aux)", -slack2, 0.0))
    except GlspecError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)

    verdicts = [(name, float(value), bound, bool(value <= bound))
                for name, value, bound in checks]
    if fmt == "json":
        text = json.dumps([{"name": name, "value": value, "bound": bound, "pass": ok}
                           for name, value, bound, ok in verdicts], indent=1) + "\n"
    else:
        text = "".join(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
                       f"(tolerance {bound:.3e})\n" for name, value, bound, ok in verdicts)
    _write(text, out)
    failed = not all(ok for *_, ok in verdicts)
    sys.exit(EXIT_VERIFY_FAIL if failed else EXIT_OK)


if __name__ == "__main__":
    main()
