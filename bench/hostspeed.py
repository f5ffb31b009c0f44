"""Host-speed probe and the scaling of wall times to a reference host speed.

On a shared host the same pure-Python work runs up to 1.5x slower for
seconds at a time while other tenants are busy, and CPU time rises with wall
time, so it is not preemption.  Every benchmark timing is therefore taken
next to a probe, a short fixed integer loop, and reported scaled to the
probe's reference time:

    reported = measured * REF_PROBE_S / (median probe time around it)

The raw times go into the run record as well.
"""

import statistics
import time

PROBE_ITERATIONS = 10_000
# median probe time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, CPython 3.11
REF_PROBE_S = 0.001
# probes on each side of an operation that set its scale factor
WINDOW = 8


def probe():
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def scaled(durations, probes):
    """Scale each duration by the probes near it.

    probes[i] was taken just before durations[i] and probes[i + 1] just after
    it, so len(probes) == len(durations) + 1.
    """
    out = []
    for i, d in enumerate(durations):
        nearby = probes[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(d * REF_PROBE_S / statistics.median(nearby))
    return out
