"""How fast the host runs right now, from a fixed piece of pure-Python work.

The benchmark's host is a share of a larger machine, and its speed drifts
with the load of its neighbours: a fixed 50 ms piece of mpmath work took
33-75 ms within six minutes, and its median over whole minutes still moved
by 15-20% (IQR over median).  The drift slows everything in the process
alike, so each timed op is followed by `probe()`, and each op's time is
divided by the slowdown that the probes just before and just after it
measured.

The probe calls nothing in glspec or mpmath and allocates no containers, so
no change to glspec (its caches, its precision or its garbage) changes what
the probe measures.  It is timed in thread CPU time, so that another thread
of the process holding the GIL does not count as a slow host.
"""

from __future__ import annotations

from time import thread_time

#: iterations of the probe loop
PROBE_ITERS = 4000
#: the probe's median time on the host where the seed-commit numbers were
#: measured (a shared 2-core Linux VM, Python 3.11): a corrected time is the
#: time the run would have taken at that speed
PROBE_NOMINAL_S = 0.8e-3


def probe() -> float:
    """Thread CPU seconds of PROBE_ITERS steps of a fixed integer recurrence."""
    t0 = thread_time()
    x = 1
    for k in range(PROBE_ITERS):
        x = (x * 48271 + k) % 2147483647
    return thread_time() - t0


def corrected(latencies, probes) -> list:
    """Each latency divided by the host slowdown around it.

    `probes[i]` and `probes[i + 1]` ran just before and just after the op
    that took `latencies[i]`; the slowdown is their mean over
    PROBE_NOMINAL_S."""
    return [lat * 2.0 * PROBE_NOMINAL_S / (a + b)
            for lat, a, b in zip(latencies, probes, probes[1:])]
