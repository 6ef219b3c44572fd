"""glspec benchmark: one command that times the library and checks every result.

    python3 bench/run.py --workload points|kernel|verify --seed N \
                         --seconds S --trace 0|1

Run from anywhere inside a checkout; it benchmarks that checkout's src/.
The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer ones.  See bench/README.md for the workloads and metrics.

All work runs in fresh child processes, one at a time and single-threaded:
  * setup: 3 fresh interpreters time `import glspec` and its submodules up to
    the first make_params; setup_s is the median of their corrected times;
  * --trace 0: one worker runs the whole op list, about S seconds of work
    at the seed commit and never fewer than 120 ops, then judges every
    result against its reference;
  * --trace 1: one untraced worker runs the first half of the list and
    judges its results; a traced worker then reruns exactly the same ops,
    and the ratio of the two corrected wall times is the tracing overhead.

Every time in a metric is corrected for the host's speed, as hostspeed.py
explains: divided by the slowdown that probes measured around it.  The
times as measured are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import corrected, probe  # noqa: E402
from ops import WORKLOADS, make_ops, ops_digest  # noqa: E402

SETUP_RUNS = 5
SETUP_CODE = (
    "import glspec, glspec.core, glspec.specfun, glspec.eigen, glspec.coeigen, "
    "glspec.density, glspec.quad, glspec.semigroup, glspec.asymptotics, glspec.cli\n"
    "glspec.make_params(0.5, 1.0)\n"
    "print('ready', flush=True)\n"
)
#: probes around each set-up run, about 8 ms of work each time
SETUP_PROBES = 10
#: a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0
#: successful ops a --trace 0 run needs, so that 10 of them lie beyond p90
MIN_OK_OPS = 100

THREAD_VARS = ("GLSPEC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def mean_probe() -> float:
    return statistics.fmean(probe() for _ in range(SETUP_PROBES))


def time_setup(env: dict) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first make_params,
    as measured and as corrected by probes just before and just after."""
    before = mean_probe()
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("glspec failed to import")
    return elapsed, corrected([elapsed], [before, mean_probe()])[0]


def run_worker(env: dict, t_end: float, args: list) -> dict:
    timeout = t_end - perf_counter()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a worker could start")
    # a process group of its own, so that a kill also reaches the processes
    # that build references
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + args, cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:      # the budget, or SIGTERM or Ctrl-C
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("worker ran past the run budget") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


#: the metrics that the host-speed correction changes
RAW_METRICS = ("setup_s", "ok_per_s", "latency_p50_ms", "latency_p90_ms")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_times(res: dict, correct: bool = True) -> list:
    """Each op's latency, corrected for the host's speed or as measured."""
    lats = [lat for lat, _, _ in res["records"]]
    return corrected(lats, res["probes"]) if correct else lats


def end_to_end(res: dict, setup_s: float, times: list) -> dict:
    # imported only now: a worker's peak RSS, as Linux reports it, counts
    # this process's size when it spawned the worker
    from scipy.stats.mstats import hdquantiles

    records = res["records"]
    ok_lat = [t for t, (_, outcome, _) in zip(times, records) if outcome == "ok"]
    digits = [d for _, _, d in records if d is not None]
    if len(ok_lat) < MIN_OK_OPS or not digits:
        raise BenchError(f"{len(ok_lat)} successful ops, fewer than the {MIN_OK_OPS} "
                         "that latency_p90_ms needs")
    # Harrell-Davis estimates weigh every order statistic, not one or two.
    # The latencies of a run spread over four decades, so the ops next to
    # p50 or p90 often differ by 10-20%, and the plain sample quantile moved
    # by up to 0.2 (IQR over median) between seeds where these moved by 0.05.
    p50, p90 = (float(q) for q in hdquantiles(ok_lat, prob=(0.5, 0.9)))
    return {
        "setup_s": metric(setup_s, "s"),
        "ok_per_s": metric(len(ok_lat) / sum(times), "ops/s"),
        "latency_p50_ms": metric(1e3 * p50, "ms"),
        "latency_p90_ms": metric(1e3 * p90, "ms"),
        "ok_frac": metric(len(ok_lat) / len(records), "ratio"),
        "digits_p10": metric(statistics.quantiles(digits, n=10, method="inclusive")[0]
                             if len(digits) > 1 else digits[0], "digits"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


LAYER_UNITS = (("calls", "count"), ("errors", "count"), ("spans", "count"),
               ("values", "count"), ("terms_per_value", "count"),
               ("terms_mean", "count"), ("dps_max", "digits"), ("_s", "s"))


def layer_unit(name: str) -> str:
    if name.startswith("ops.failed."):
        return "count"
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


FAIL_CLASSES = ("glspec_error", "bare_exception", "tolerance", "deadline")


def fail_class(outcome: str) -> str:
    if outcome.startswith("glspec:"):
        return "glspec_error"
    if outcome.startswith("bare:"):
        return "bare_exception"
    return outcome


def per_layer(base: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = sum(op_times(traced)) / sum(op_times(base)) - 1.0
    fails = Counter(fail_class(o) for _, o, _ in base["records"] if o != "ok")
    for cls in FAIL_CLASSES:
        layers[f"ops.failed.{cls}"] = fails.get(cls, 0)
    return {name: metric(v, layer_unit(name)) for name, v in layers.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_end = perf_counter() + RUN_BUDGET_S
    # SIGTERM unwinds like Ctrl-C, so that run_worker stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for need in (ROOT / "src" / "glspec" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"missing {need.relative_to(ROOT)}: run from a full glspec checkout",
                  file=sys.stderr)
            return 2
    env = child_env()
    ops = make_ops(args.workload, args.seed, args.seconds)
    digest = ops_digest(ops)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--ops-seconds", repr(args.seconds)]
    try:
        setups = [time_setup(env) for _ in range(SETUP_RUNS)]
        setup_raw = statistics.median(t for t, _ in setups)
        setup_s = statistics.median(t for _, t in setups)
        if args.trace:
            half = ["--count", str(len(ops) // 2)]
            base = run_worker(env, t_end, common + half + ["--check"])
            traced = run_worker(env, t_end, common + half + ["--trace"])
            results = [base, traced]
            metrics = per_layer(base, traced)
        else:
            base = run_worker(env, t_end, common + ["--check"])
            results = [base]
            metrics = end_to_end(base, setup_s, op_times(base))
            raw = end_to_end(base, setup_raw, op_times(base, correct=False))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    outcomes = Counter(o for _, o, _ in base["records"])
    # wrong values are failures of kind `tolerance`: they count in `failed`
    # and lower ok_frac and ok_per_s.  `correct` says every op was judged.
    correct = all(r["digest"] == digest for r in results) and base["ref_errors"] == 0
    failed = sum(n for o, n in outcomes.items() if o != "ok")
    slowdown = sum(op_times(base, correct=False)) / sum(op_times(base))
    print(f"workload {args.workload} seed {args.seed}: ops digest {digest[:16]}, "
          f"host slowdown {slowdown:.3f}")
    if not args.trace:
        print("  as measured, before the host-speed correction: "
              + ", ".join(f"{k} {raw[k]['value']:.4g}" for k in RAW_METRICS))
    for outcome, n in sorted(outcomes.items()):
        print(f"  {outcome}: {n}")
    for op, (_, outcome, _) in zip(ops, base["records"]):
        if outcome != "ok":
            fields = (f"{v:.6g}" if isinstance(v, float) else str(v) for v in op)
            print(f"    {outcome}: {' '.join(fields)}")
    print(json.dumps({"correct": bool(correct), "attempted": len(base["records"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
