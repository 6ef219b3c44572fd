"""Alternating parent/change pairs of `bench/run.py --trace 0`, summarised.

    python3 tools/bench_pairs.py --out BENCH.json [--base REV]
                                 [--workloads kernel points verify] [--seeds 1 2]

The parent is REV (default HEAD~1), extracted with `git archive` into a
temporary directory; the change is this checkout's working tree.  For each
workload and seed the tool runs PAIRS pairs, each run as long as
BENCHMARK.json's ``run_seconds``: the two sides run one after the other,
and the side that runs first alternates from pair to pair, so that a drift
of the host's speed falls on both alike.  The output file holds, per
workload, seed and end-to-end metric of BENCHMARK.json, every run's value,
each side's median and quartiles, and the number of pairs the change won
(ties win for neither).  A run that fails is recorded with its exit code
and stderr tail.  After each workload and seed one line gives the parent
and change medians of ok_per_s, latency_p50_ms and latency_p90_ms and the
pairs won; the tool exits 1 if any run failed.

Each run is a child process in its own session; on any exit, Ctrl-C
included, the session is killed, so no benchmark process outlives the tool.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: alternating parent/change pairs per workload and seed
PAIRS = 10

#: the metrics of the one-line summary printed per workload and seed
SUMMARY_METRICS = ("ok_per_s", "latency_p50_ms", "latency_p90_ms")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run in checkout: its metric values, or
    its exit code and the tail of its stderr."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": err[-2000:]}
    result = json.loads(out.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs: list) -> list:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return [q1, q2, q3]


def summarise(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' runs, medians and quartiles, and the pairs
    the change won, by the metric's own direction."""
    out = {}
    ok = [(b, c) for b, c in pairs if "metrics" in b and "metrics" in c]
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [b["metrics"][name] for b, _ in ok]
        change = [c["metrics"][name] for _, c in ok]
        if not ok:
            continue
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": base, "change": change,
                     "parent_median": qb[1], "parent_quartiles": [qb[0], qb[2]],
                     "change_median": qc[1], "change_quartiles": [qc[0], qc[2]],
                     "ratio_of_medians": qc[1] / qb[1] if qb[1] else None,
                     "pairs_won": won, "pairs": len(ok)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--workloads", nargs="+", default=["kernel", "points", "verify"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], float(bench["run_seconds"])
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    report = {"base": base_rev, "change": "working tree of " + subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True,
        text=True).stdout.strip(), "seconds": seconds, "runs": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workloads:
            for seed in args.seeds:
                pairs = []
                for i in range(PAIRS):
                    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                    got = {side: run_bench(sides[side], workload, seed, seconds)
                           for side in order}
                    pairs.append((got["parent"], got["change"]))
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: " + ", ".join(
                        f"{s} {g['metrics']['ok_per_s']:.1f} ok/s" if "metrics" in g
                        else f"{s} exit {g['exit']}" for s, g in got.items()), flush=True)
                run = report["runs"][f"{workload}/seed{seed}"] = {
                    "failed_runs": [[b, c] for b, c in pairs
                                    if "metrics" not in b or "metrics" not in c],
                    "ops_failed": [[b.get("failed"), c.get("failed")] for b, c in pairs],
                    "metrics": summarise(pairs, metrics)}
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                print(summary_line(f"{workload} seed {seed}", run), flush=True)
    failed = sum(len(run["failed_runs"]) for run in report["runs"].values())
    if failed:
        print(f"{failed} pairs had a failed run; see failed_runs in {args.out}", file=sys.stderr)
    return 1 if failed else 0


def summary_line(name: str, run: dict) -> str:
    """The parent and change medians of the headline metrics of one workload
    and seed, with the pairs the change won."""
    parts = [f"{name}:"]
    for metric in SUMMARY_METRICS:
        m = run["metrics"].get(metric)
        if m is not None:
            parts.append(f"{metric} {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                         f"({m['pairs_won']}/{m['pairs']} won)")
    if run["failed_runs"]:
        parts.append(f"{len(run['failed_runs'])} pairs with a failed run")
    return " ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
