"""The machine's current speed, from a fixed reference loop, for scaling op times.

The 2-vCPU VM this benchmark was tuned on changes speed by up to a
factor of two within a minute, in the process's CPU time as much as in
wall time: the host, not the guest, sets the pace.  A 25-second run sits inside one such spell, so raw
op times spread with the machine rather than with the program.

Each benchmark process therefore samples a reference pass every
``SAMPLE_EVERY_S`` seconds, between ops and outside their timed
intervals.  The pass is a small sparse-polynomial product over
tuple-keyed dicts of big integers: the same kind of work as the library,
but the benchmark's own code, so no change to the library can move it.
An op's time is scaled by ``REF_PASS_S`` over the median pass time within
``WINDOW_S`` seconds of the op; the scaled time is the op's time on a
machine where one pass takes ``REF_PASS_S``.  Raw times are printed too.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_PASS_S = 0.002   # one pass on the reference VM in a fast spell
SAMPLE_EVERY_S = 0.25
PASSES_PER_SAMPLE = 2  # a sample is the fastest of these, which drops interrupts
WINDOW_S = 1.0

_LEFT = {(i, j, (i * j) % 5): (i + 1) * (j + 2) * 10**12 for i in range(12) for j in range(12)}
_RIGHT = {(i, j % 3, j): i * 7 - j for i in range(7) for j in range(7) if i != j}


def _product() -> int:
    out: dict = {}
    for (a0, a1, a2), va in _LEFT.items():
        for (b0, b1, b2), vb in _RIGHT.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + va * vb
    return len(out)


def pass_s() -> float:
    """Seconds for one reference pass, the fastest of ``PASSES_PER_SAMPLE``."""
    best = float("inf")
    for _ in range(PASSES_PER_SAMPLE):
        t0 = perf_counter()
        _product()
        best = min(best, perf_counter() - t0)
    return best


class SpeedLog:
    """Reference-pass samples taken between ops, as ``(time, pass seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((perf_counter(), pass_s()))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()


def scale(samples: list[tuple[float, float]], starts: list[float], times: list[float]) -> list[float]:
    """Each op time scaled to the reference speed, by the median pass near the op."""
    at = [t for t, _ in samples]
    out = []
    for start, took in zip(starts, times):
        lo = bisect_left(at, start - WINDOW_S)
        hi = bisect_right(at, start + took + WINDOW_S)
        if lo == hi:  # no sample in the window: take the last one before the op
            lo = max(bisect_left(at, start) - 1, 0)
            hi = lo + 1
        out.append(took * REF_PASS_S / statistics.median(s for _, s in samples[lo:hi]))
    return out
