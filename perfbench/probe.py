"""The host-speed probe: fixed work whose time only the host can change.

The host the benchmark was defined on (2 vCPUs of a shared Intel Xeon)
switches within seconds between two speeds about 1.4x apart, and the
share of time at each drifts over minutes, so wall times of the same
work spread by 10-30% from run to run. Probes taken while a timing runs
measure the speed it ran at, and `scaled()` turns the timing into what it
would read at the reference speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# probe_ms() on the defining host; scaled timings read as at this speed.
REFERENCE_MS = 0.3

_M = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 32.0


def work() -> float:
    """A plain Python loop and small BLAS calls, the two kinds of work the
    commands do, on data small enough to stay in cache. Uses no anomix
    code and draws no random numbers."""
    total = 0.0
    for i in range(2500):
        total += i * 0.5
    m = _M
    for _ in range(10):
        m = np.tanh(m @ _M)
    return total + float(m[0, 0])


def probe_ms() -> float:
    """Milliseconds of one pass of work(), timed after an untimed pass.

    The first pass brings the probe's code and data back into the caches
    the program evicted, so the timed pass measures the host and not
    what the program last touched.
    """
    work()
    start = perf_counter()
    work()
    return (perf_counter() - start) * 1e3


def mean_ms(samples: list[float]) -> float:
    """Mean probe time without the highest and lowest tenth of the samples.

    A probe the kernel preempted reads many times too slow, and one such
    probe would move the plain mean of a short window by tens of percent.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def scaled(seconds: float, mean_probe_ms: float) -> float:
    """A duration taken while probes averaged `mean_probe_ms`, as it would
    read at the reference speed."""
    return seconds * REFERENCE_MS / mean_probe_ms
