"""Seeded op lists for the three workloads.

This module imports nothing from glspec: the orchestrator and the workers
both build the op list from the seed and compare its hash, so the same seed
always yields the same ops.  An op is a plain tuple of a kind string and
numbers; `work.py` turns it into glspec calls.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

WORKLOADS = ("points", "kernel", "verify")

#: (alpha, beta) pairs of the `points` workload
POINT_PAIRS = ((0.5, 1.0), (2.0 / 3.0, 0.0), (0.75, 0.5), (1.0 / 3.0, 2.0),
               (1.0, 0.0))

#: (alpha, beta) pairs of the `kernel` workload.  alpha = 1/3 is left out: at
#: the seed a value there with y > 4 took 15-20 s or ran past a 20 s deadline.
KERNEL_PAIRS = ((0.5, 1.0), (2.0 / 3.0, 0.0), (0.75, 0.5), (1.0, 0.0))

#: verify op kinds, fastest first, and their weights in the mix.  At the seed
#: bound_region_check takes about 0.8 s and intertwine_check about 0.5 s, the
#: others 0.15 s or less.  These weights keep the run near 4 ops/s, so that
#: the MIN_OPS ops a run needs take about 30 s, and put p50 inside the
#: eigen_residual latencies and p90 inside the two slow kinds, away from the
#: steps between kinds.
VERIFY_KINDS = {"mellin": 2, "gram_biorth": 4, "eigen_residual": 6, "r_norm": 2,
                "bound_region": 3, "intertwine": 3}
BOUND_REGIONS = ("fixed_x", "middle", "suboptimal", "large")

#: ops in a run, per second of --seconds: about the rate of successful ops
#: at the seed commit, so that a run above MIN_OPS lasts about --seconds
#: there.  A run always holds the same number of ops, so every run attempts
#: the same ops, and fails the same ones, however fast the host is.
OPS_PER_SECOND = {"points": 15, "kernel": 4, "verify": 4}
#: fewest ops in a run: at least 100 must succeed for latency_p90_ms, and 12
#: verify ops fail at the seed commit
MIN_OPS = 120


_PRIMES = (2, 3, 5, 7)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, d = divmod(i, base)
        inv += d * f
        f /= base
    return inv


def _halton(dims: int):
    """Points of the Halton sequence, which covers the unit cube evenly in
    every prefix: even a list of 120 ops holds op kinds and sizes in the
    proportions of their ranges."""
    i = 0
    while True:
        i += 1
        yield [_radical_inverse(i, b) for b in _PRIMES[:dims]]


def _weighted(table):
    """Expand (choice, weight) pairs with small integer weights into a list
    that _pick samples in proportion to the weights."""
    return [c for c, w in table for _ in range(w)]


# (pair, kind) of points: each pair equally likely, then each kind defined
# there (lambda needs alpha < 1); the first coordinate, in base 2, walks
# through these combinations evenly
_POINT_KINDS = _weighted(
    [((i, k), 3 if a < 1.0 else 4)
     for i, (a, _) in enumerate(POINT_PAIRS)
     for k in (("P", "R", "W", "lambda") if a < 1.0 else ("P", "R", "W"))])
_KERNEL_KINDS = [(k, i) for k in ("heat", "selfsimilar") for i in range(len(KERNEL_PAIRS))]


def _pick(u: float, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


#: points on the x (or z) grid of one `points` op, one per log-spaced cell
GRID_POINTS = 8
X_RANGE = (0.05, 5.0)           # the CLI default x grid 0.1:5:0.5, widened down
Z_RANGE = (0.05, 10.0)


def grid(kind: str, x0: float) -> list:
    """The x (or z) values of a `points` op: GRID_POINTS log-spaced values
    from x0, one in each of GRID_POINTS equal log-cells of the range, as one
    `glspec eval` call tabulates a function over a grid."""
    lo, hi = Z_RANGE if kind == "lambda" else X_RANGE
    ratio = (hi / lo) ** (1.0 / GRID_POINTS)
    return [x0 * ratio ** j for j in range(GRID_POINTS)]


def _points_op(u, done) -> tuple:
    pair, kind = _pick(u[0], _POINT_KINDS)
    lo, hi = Z_RANGE if kind == "lambda" else X_RANGE
    x0 = _log_uniform(u[2], lo, lo * (hi / lo) ** (1.0 / GRID_POINTS))
    if kind == "lambda":
        return (kind, pair, x0)
    return (kind, pair, _pick(u[1], range(41)), x0)


def _kernel_op(u, done) -> tuple:
    kind, pair = _pick(u[0], _KERNEL_KINDS)
    return (kind, pair, _log_uniform(u[2], 0.5, 2.0), 0.1 + 2.9 * u[3],
            0.1 + 5.9 * u[1])          # y spans the CLI's y grid 0.1:6:0.1


_RATIONAL_ALPHAS = sorted(float(f) for f in {Fraction(p, q) for q in range(1, 13)
                                              for p in range(1, q + 1)}
                          if 0.35 <= f <= 1.0)


def _alpha(u: float, below: float) -> float:
    """Alpha on [0.35, 1]: 80% rationals p/q with q <= 12, 20% irrationals
    (no p/q with q <= 64 within 1e-9), restricted to alpha < below (or 1)."""
    rationals = [a for a in _RATIONAL_ALPHAS if a < below or (a == 1.0 and below > 1.0)]
    if u < 0.8:
        return _pick(u / 0.8, rationals)
    alpha = 0.35 + (u - 0.8) / 0.2 * (min(below, 1.0) - 0.35)
    while abs(float(Fraction(alpha).limit_denominator(64)) - alpha) <= 1e-9:
        alpha += 1e-8
    return alpha


#: alpha of successive gram_biorth ops, in turn: two pinned where glspec's
#: quadrature is known to fail (a QuadratureError at alpha = 1/2; at
#: alpha = 1, ||G - I|| from 0.04 to 1.3 once N >= 8), two drawn rationals
#: and one drawn irrational, which keeps the 80/20 mix.  A cycle of its own
#: keeps both pinned values in every run: drawn from the op's Halton point,
#: alpha is correlated with the kind, and no gram_biorth op falls on 1/2 or 1.
GRAM_ALPHAS = (0.5, "rational", 1.0, "rational", "irrational")


def _gram_alpha(u: float, nth: int) -> float:
    stratum = GRAM_ALPHAS[nth % len(GRAM_ALPHAS)]
    if stratum == "rational":
        return _alpha(0.8 * u, 2.0)
    if stratum == "irrational":
        return _alpha(0.8 + 0.2 * u, 2.0)
    return stratum


def _verify_op(u, done) -> tuple:
    kind = _pick(u[0], _weighted(VERIFY_KINDS.items()))
    if kind == "gram_biorth":
        alpha = _gram_alpha(u[1], done[kind])
    elif kind == "bound_region":
        alpha = _alpha(u[1], 1.0)   # bound_region_check is defined for alpha < 1 only
    elif kind == "intertwine":
        # intertwine_check at 0.9 <= alpha < 1 ends in a ContourError from the
        # kernel grid after 6-30 s; one such op would swing a run by half.
        # The same contour failure stays measured by `points` (lambda at
        # alpha = 3/4, z > 9), where it costs 0.3 s.
        alpha = _alpha(u[1], 0.9)
    else:
        alpha = _alpha(u[1], 2.0)
    lo = 1.0 - 1.0 / alpha + 0.05
    beta = lo + u[2] * (2.5 - lo)
    if kind == "gram_biorth":
        return (kind, alpha, beta, _pick(u[3], range(4, 11)))
    if kind == "eigen_residual":
        return (kind, alpha, beta, _pick(u[3], range(1, 7)))
    if kind == "r_norm":
        return (kind, alpha, beta, _pick(u[3], range(1, 13)))
    if kind == "bound_region":
        return (kind, alpha, beta, _pick(u[3], BOUND_REGIONS))
    return (kind, alpha, beta)


# the number of Halton coordinates each op uses; the first, in base 2, picks
# the op's kind, whose cost varies most.  A maker also gets the count of each
# kind already in the list.
_MAKERS = {"points": (_points_op, 3), "kernel": (_kernel_op, 4), "verify": (_verify_op, 4)}


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, int(math.ceil(OPS_PER_SECOND[workload] * seconds)))


def make_ops(workload: str, seed: int, seconds: float) -> list:
    """The op list of one run: a pure function of (workload, seed, seconds).

    The ops are the first ones of a fixed design, and on `points` and
    `verify` the seed shuffles their order.  The seed moves no input:
    several cases lie so near their tolerance that moving an input by 0.1%
    makes them pass or fail (W_38 at alpha = 3/4 near x = 0.675, gram_biorth
    at alpha = 1 with N = 8), so a run's failure count would depend on its
    seed.  `kernel` keeps the design order: its ops share cached values so
    much that one op took 0.2 ms after another op and 42 ms before it, and
    shuffled, its latency_p50_ms spread 0.16 between ten seeds, against
    0.03 and 0.08 in two sets in design order.

    In `verify` no two ops share a parameter pair."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    maker, dims = _MAKERS[workload]
    points = _halton(dims)
    count = op_count(workload, seconds)
    ops, seen, done = [], set(), Counter()
    while len(ops) < count:
        op = maker(next(points), done)
        if workload == "verify":
            if op[1:3] in seen:
                continue
            seen.add(op[1:3])
        ops.append(op)
        done[op[0]] += 1
    if workload != "kernel":
        random.Random(f"glspec-bench:{workload}:{seed}").shuffle(ops)
    return ops


def ops_digest(ops: list) -> str:
    """sha256 of the op list; equal digests mean equal op lists."""
    return hashlib.sha256(repr(ops).encode()).hexdigest()
