"""One measured pass over a workload's op list, in a fresh process.

Run by run.py, never by hand:

    python3 bench/worker.py --workload W --seed N --ops-seconds S0
                            [--count C] [--trace] [--check]

It builds the op list of a run of S0 seconds from the seed, runs its first
C ops (all of them by default) in a closed loop (one caller, each op
starting when the previous one ends), and prints one JSON line: the op-list
digest, the times of the host-speed probes around the ops (see
hostspeed.py), peak RSS, and per op its latency and outcome.  With --trace
every glspec public function is wrapped and the per-layer numbers are
added; with --check each result is judged against its reference after the
loop.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import glspec  # noqa: E402

from ops import make_ops, ops_digest  # noqa: E402
import hostspeed  # noqa: E402
import work  # noqa: E402
from refs import build_references  # noqa: E402

#: per-op deadline in seconds, at least 10x the slowest successful op seen
#: at the seed on each workload, so pass or fail does not flip between runs
DEADLINE_S = {"points": 30.0, "kernel": 90.0, "verify": 60.0}

#: processes that build references after the timed loop, one per core of a
#: 2-core machine.  In one process the references of a run took 14 s
#: (kernel, 120 ops) and 21 s (points, 300 ops), and a run must leave the
#: whole benchmark within its time budget.
REF_PROCESSES = 2


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that glspec's own
    `except Exception` fallbacks do not swallow it."""


def _alarm(signum, frame):
    raise OpDeadline()


def run_loop(ops, pp, deadline: float):
    """[(latency_s, value or failure kind)] of the ops, and the times of the
    host-speed probes run before the first op and after each op."""
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    probes = [hostspeed.probe()]
    for op in ops:
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                result = work.run_op(op, pp)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except OpDeadline:
            result = "deadline"
        except glspec.GlspecError as exc:
            result = f"glspec:{type(exc).__name__}"
        except Exception as exc:          # a bare exception is a finding, not a crash
            result = f"bare:{type(exc).__name__}"
        records.append((perf_counter() - t0, result))
        probes.append(hostspeed.probe())
    return records, probes


def check(ops, records) -> tuple[list, int]:
    """Judge each returned value against its reference.

    The references are built after the timed loop by REF_PROCESSES
    processes, each taking every REF_PROCESSES-th op.
    """
    judged = [op for op, (_, result) in zip(ops, records) if not isinstance(result, str)]
    parts = [judged[i::REF_PROCESSES] for i in range(REF_PROCESSES)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=REF_PROCESSES, mp_context=ctx) as pool:
        done = list(pool.map(build_references, parts))
    refs = [None] * len(judged)
    for i, part in enumerate(done):
        refs[i::REF_PROCESSES] = part
    refs = iter(refs)
    out = []
    ref_errors = 0
    for op, (latency, result) in zip(ops, records):
        if isinstance(result, str):
            out.append([latency, result, None])
            continue
        ref = next(refs)
        if isinstance(ref, str):
            print(f"reference failed for {op}: {ref}", file=sys.stderr)
            ref_errors += 1
            out.append([latency, "unchecked", None])
        else:
            passed, digits = work.judge(op, result, ref)
            out.append([latency, "ok" if passed else "tolerance", digits])
    return out, ref_errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, help="run only the first COUNT ops")
    ap.add_argument("--ops-seconds", type=float, required=True,
                    help="run length the op list is generated for")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if not Path(glspec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"glspec imported from {glspec.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    ops = make_ops(args.workload, args.seed, args.ops_seconds)
    pp = work.Params()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(glspec)
        tracer.install()
    records, probes = run_loop(ops[:args.count], pp, DEADLINE_S[args.workload])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"digest": ops_digest(ops), "probes": probes, "attempted": len(records),
           "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        values = sum(not isinstance(r, str) for _, r in records)
        # the loop's wall time leaves out the probes between ops
        out["layers"] = tracer.metrics(sum(lat for lat, _ in records), values)
        tracer.save(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
    if args.check:
        out["records"], out["ref_errors"] = check(ops, records)
    else:
        out["records"] = [[lat, r if isinstance(r, str) else "value", None]
                          for lat, r in records]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
