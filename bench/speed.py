"""Machine-speed probe for timings taken on a shared, noisy machine.

On a shared virtual machine the same single-threaded work runs at speeds
that differ by up to half between phases lasting seconds to minutes, so two
runs of one commit can differ by more than a regression worth catching.
``SpeedProbe`` times a fixed reference workload between units; a unit's time
is then rescaled to the reference speed:

    normalized = raw * REFERENCE_S / (median reference time around the unit)

The reference workload is plain Python that uses no pwham code, mixing the
kinds of arithmetic pwham spends its time in: exact ``Fraction`` polynomial
evaluation with short and with long numbers (the algebra layer on ``bulk``
and on ``bigcoef``), and float stepping in a closure (the dynamics layer).
Slow phases slow these by different amounts (short Fractions most), so the
mix tracks every workload better than any one part.

``REFERENCE_S`` is a fixed nominal duration of the reference workload, close
to its duration on a 2-core 2.1 GHz virtual machine in a quiet phase, so
normalized times keep the scale of seconds on such a machine.  Only ratios
between runs matter; changing the constant or the reference workload changes
every figure measured after it.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0022
SAMPLE_EVERY_S = 0.1  # about 2% of a run's time goes to sampling
_SMALL = (Fraction(3, 7), Fraction(-5, 11), Fraction(2, 3), Fraction(1, 13), Fraction(-7, 5))
_LONG = tuple(Fraction((-1) ** k * (3**250 + k), 7**140 + 2 * k + 1) for k in range(5))


def _field(u, v):
    return -v + 0.3 * u * u, u - 0.2 * u * v


def reference_work() -> float:
    """Fixed work of about REFERENCE_S seconds, in three parts of similar
    length: Horner evaluation with short and with 400-bit Fractions, and
    float stepping through a closure."""
    x, acc = Fraction(1, 3), Fraction(0)
    for k in range(34):
        x = (x + Fraction(k % 5 + 1, 7)) / 2
        acc = Fraction(0)
        for c in _SMALL:
            acc = acc * x + c

    lo, hi = Fraction(-3), Fraction(5)
    for _ in range(21):
        m = (lo + hi) / 2
        val = Fraction(0)
        for c in _LONG:
            val = val * m + c
        lo, hi = (m, hi) if val > 0 else (lo, m)

    u, v, h = 0.5, 0.1, 1e-3
    for _ in range(1900):
        k1u, k1v = _field(u, v)
        k2u, k2v = _field(u + h * k1u, v + h * k1v)
        u, v = u + 0.5 * h * (k1u + k2u), v + 0.5 * h * (k1v + k2v)
    return float(acc) + float(lo) + u + v


class SpeedProbe:
    """Reference-workload timings taken between units of a run."""

    def __init__(self):
        self.times: list[float] = []      # sample start times, ascending
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t = perf_counter()
        reference_work()
        self.times.append(t)
        self.durations.append(perf_counter() - t)
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Take one sample per SAMPLE_EVERY_S seconds since the last one, at
        most five, so that a long unit is bracketed by several samples."""
        owed = int((perf_counter() - self._last) / SAMPLE_EVERY_S)
        for _ in range(min(owed, 5)):
            self.sample()

    def factor(self, start: float, end: float, margin: float = 1.0) -> float:
        """REFERENCE_S over the median reference time within ``margin``
        seconds of [start, end].  Sampling before each unit once
        SAMPLE_EVERY_S has passed, and once after the last, puts one there."""
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
