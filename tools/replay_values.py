"""Compare every value of the benchmark's op lists between a base revision
and this checkout's working tree.

    python3 tools/replay_values.py [--base REV] [--workloads points kernel verify]
                                   [--seeds 1 2]

The base is REV (default HEAD~1), extracted with `git archive` into a
temporary directory.  For each side, workload and seed, one child process
builds the op list that `bench/run.py` runs for BENCHMARK.json's
``run_seconds`` (``bench/ops.py``), runs each op once through
``bench/work.py``'s ``run_op`` with the side's own `src/`, and prints its
values: the points of a `points` op, the one value of a `kernel` or
`verify` op, or the name of the exception an op raised.  For each workload
and seed one line gives the number of values compared, the number that
differ in any bit (NaN matches NaN; an exception matches the same
exception), the worst relative difference |change - base| / |base| and
the worst difference in units in the last place of the base value; an
indented line per op kind (P, R, W, lambda, heat, ..., intertwine) gives
that kind's values compared, values differing and worst relative
difference.  Then each command of COMMANDS runs as `glspec ...` on both
sides, and one line says whether its exit code, stdout bytes and stderr
bytes are the same.  The tool exits 1 if any value or command differs or a
child fails.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: run in a child per side: argv is the checkout, workload, seed and seconds
CHILD = r"""
import json, sys
root, workload, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/bench"]
from ops import make_ops
import work
pp, out = work.Params(), []
for op in make_ops(workload, seed, seconds):
    try:
        value = work.run_op(op, pp)
        value = [float(v) for v in value] if isinstance(value, list) else [float(value)]
    except Exception as exc:
        value = [type(exc).__name__]
    out.append([op[0], value])
print(json.dumps(out))
"""


def replay(checkout: Path, workload: str, seed: int, seconds: float) -> list:
    """Per op of the list, its kind and its values (or exception name) in
    checkout."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout), workload, str(seed),
                           repr(seconds)], cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: `glspec` commands run on both sides, each under a second
COMMANDS = (("verify", "all"),
            ("verify", "all", "--alpha", "0.4285714285714286", "--beta", "1"),
            ("eval", "heat", "--alpha", "0.5", "--beta", "1"),
            ("eval", "heat", "--alpha", "1", "--beta", "0"),
            ("eval", "heat", "--alpha", "0.6180339887", "--beta", "1"),
            ("eval", "heat", "--alpha", "0.75", "--beta", "0.5", "--quad-order", "60"),
            ("eval", "e_ab", "--alpha", "0.5", "--beta", "1"),
            ("eval", "K", "--alpha", "0.75", "--beta", "0.5"),
            ("eval", "W", "--alpha", "0.5", "--beta", "1", "--n", "12", "--q", "2"),
            ("eval", "lambda", "--alpha", "0.75", "--beta", "0.5"),
            ("eval", "lambda", "--alpha", "0.5", "--beta", "1"),
            ("verify", "representations", "--alpha", "0.75", "--beta", "0.5"),
            ("verify", "eigen", "--alpha", "0.75", "--beta", "0.5"),
            ("verify", "intertwine", "--format", "json", "--alpha", "0.4", "--beta", "1.3"),
            ("verify", "intertwine", "--format", "json", "--alpha", "0.85", "--beta", "2"),
            ("verify", "intertwine", "--format", "json", "--alpha", "0.9", "--beta", "0.5"),
            ("verify", "biorth", "--alpha", "0.7071067811865476"),
            ("verify", "biorth", "--n", "40"),
            ("verify", "biorth", "--precision", "ext128"))


def run_cli(checkout: Path, args: tuple) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of `glspec args` on
    checkout's `src/`."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "glspec.cli", *args], cwd=checkout, env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def same(a, b) -> bool:
    """a and b are the same value to the bit (or the same exception name)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()
    return a == b


def rel_diff(a, b) -> float:
    """|a - b| / |b| (|a - b| where b = 0); inf where they cannot be compared."""
    if not (isinstance(a, float) and isinstance(b, float)) or math.isnan(a) or math.isnan(b):
        return math.inf
    if a == b:
        return 0.0
    d = abs(a - b)
    return d / abs(b) if b != 0.0 and math.isfinite(d) else d


def ulp_diff(a, b) -> float:
    """|a - b| in units in the last place of b; inf where they cannot be
    compared (an exception, NaN or inf on one side only)."""
    if not (isinstance(a, float) and isinstance(b, float) and math.isfinite(b)):
        return 0.0 if same(a, b) else math.inf
    return abs(a - b) / math.ulp(b)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--workloads", nargs="+", default=["points", "kernel", "verify"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = ap.parse_args()
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    print(f"base {base_rev} against the working tree, op lists of {seconds:g} s")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="replay-base-") as tmp:
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        for workload in args.workloads:
            for seed in args.seeds:
                base = replay(Path(tmp), workload, seed, seconds)
                change = replay(ROOT, workload, seed, seconds)
                kinds = {}
                for (kind, cs), (_, bs) in zip(change, base):
                    pairs, bad = kinds.setdefault(kind, ([], []))
                    pairs += zip(cs, bs)
                    bad += [(rel_diff(c, b), ulp_diff(c, b)) for c, b in zip(cs, bs)
                            if not same(c, b)]
                    bad += [(math.inf, math.inf)] * (len(cs) != len(bs))
                count = sum(len(pairs) for pairs, _ in kinds.values())
                bad = [d for _, kind_bad in kinds.values() for d in kind_bad]
                differ += len(bad)
                rel, ulps = [max(d) for d in zip(*bad)] or [0.0, 0.0]
                print(f"{workload} seed {seed}: {count} values, {len(bad)} differ, "
                      f"worst relative difference {rel:.3g}, worst {ulps:.3g} ulps", flush=True)
                for kind, (pairs, kind_bad) in sorted(kinds.items()):
                    worst = max((d[0] for d in kind_bad), default=0.0)
                    print(f"  {kind}: {len(pairs)} values, {len(kind_bad)} differ, "
                          f"worst relative difference {worst:.3g}", flush=True)
        for args in COMMANDS:
            base, change = run_cli(Path(tmp), args), run_cli(ROOT, args)
            verdict = "same" if base == change else "differing"
            differ += verdict == "differing"
            print(f"glspec {' '.join(args)}: {verdict} (exit {base[0]} / {change[0]}, "
                  f"stdout {len(base[1])} / {len(change[1])} bytes, "
                  f"stderr {len(base[2])} / {len(change[2])} bytes)", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
