"""Normalizes timings for the speed the host gives this process right now.

On a shared host the same work can take 1.7 times as long from one second
to the next, and a whole run can fall into a slow phase.  Such a slowdown
stretches all CPU-bound code alike: a fixed calibration kernel slows down
by the same factor as advgrad's models do.  Measured on a 2-core VM over
90 s, 5-second medians of raw model time varied by 34%, normalized ones by
7%.  The kernel first overwrites a 2 MiB buffer, so it starts from the
same cache state whatever code it interrupted, and meets the same
contention for caches and memory as that code.  So a
`SpeedTrace` times the kernel 25 ms after the previous sample ended, from
a timer signal, and `normalizer()` converts a wall interval into the time
it would have taken at the reference speed: each slice of the interval is
scaled by ``REFERENCE_S / kernel time`` measured around it, and the time
spent sampling is left out.

The kernel uses numpy and plain Python only, never advgrad, so no change
to the program can change the reference.  A kernel timing in which the
thread blocked (it waited for the GIL that another thread of the program
held) is taken again, so the program's own threads do not pass for a slow
host.  `tests/test_perfbench.py` checks that extra work or a busy BLAS
thread moves normalized times as much as raw ones.  A busy thread that
holds the GIL still slows the kernel somewhat, so a change to the
program's threading is confirmed on raw times.
"""

from __future__ import annotations

import resource
import signal
import time

import numpy as np

# Kernel time that defines the reference speed: about its median on a
# 2-core Intel Xeon VM (numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = 1.7e-4
INTERVAL_S = 0.025
SMOOTH = 5
RETRIES = 8

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 64))
_V = _rng.standard_normal(64)
_FLUSH = np.zeros(2**18)  # 2 MiB, larger than a core's private caches


def kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python loops."""
    v = _V
    start = time.perf_counter()
    for _ in range(8):
        h = np.tanh(_W @ v)
        v = v - 1e-3 * (_W.T @ h)
        float(np.outer(h, v).sum())
        [i * i for i in range(16)]
    return time.perf_counter() - start


def _blocked_count():
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw


def undisturbed_kernel():
    """`kernel()` timed until a run did not block, at most RETRIES times."""
    for _ in range(RETRIES):
        before = _blocked_count()
        seconds = kernel()
        if _blocked_count() == before:
            break
    return seconds


class SpeedTrace:
    """Kernel timings, one `INTERVAL_S` after another, while the trace is active."""

    def __init__(self):
        self.active = False
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def _sample(self, *_):
        self.begins.append(time.perf_counter())
        # overwrite the private caches first, so the kernel starts from the
        # same cache state whatever code it interrupted
        np.add(_FLUSH, 1.0, out=_FLUSH)
        self.kernel_s.append(undisturbed_kernel())
        self.ends.append(time.perf_counter())
        # a one-shot timer, armed after the sample, so samples never nest
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self.active = True
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # a signal still pending must not meet the default action, which exits
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample()
        return False

    def normalizer(self):
        """Return f(start, end): the interval's length at reference speed.

        Time spent sampling counts as zero; the time between samples k-1
        and k runs at REFERENCE_S over the median kernel time of the SMOOTH
        samples around k.
        """
        padded = np.pad(np.asarray(self.kernel_s), SMOOTH // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTH)
        speed = REFERENCE_S / np.median(windows, axis=1)
        bounds = np.column_stack([self.begins, self.ends]).reshape(-1)
        # bounds alternate begin_k, end_k; a sample runs at rate 0 and the
        # gap after it at the speed of the next sample
        rate = np.zeros(len(bounds))
        rate[1:-1:2] = speed[1:]
        cum = np.concatenate([[0.0], np.cumsum(np.diff(bounds) * rate[:-1])])

        def at(t):
            i = int(np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(bounds) - 2))
            return cum[i] + (min(t, bounds[i + 1]) - bounds[i]) * rate[i]

        return lambda start, end: at(end) - at(start)
