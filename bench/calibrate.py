"""Speed readings that put every timing on one reference machine speed.

On a shared host the speed of a core drifts by up to 1.8x in phases of
seconds to minutes, so raw wall times of the same command differ that
much between processes.  The harness takes a speed reading right before
and right after every timed command and scales the command's raw time
by ``REFERENCE_S / mean(reading before, reading after)``: a reported
second is a second on a machine where the unit below takes REFERENCE_S.
The unit is plain Python with exact rationals, bit masks and a dict,
like the program, and calls nothing in the program, so no change to
the program can move it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

#: Time the unit takes at reference speed, in seconds.
REFERENCE_S = 0.001
#: Units per speed reading.
SAMPLE_UNITS = 5


def _unit() -> int:
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i + 1, 7 * i)
    table: dict[int, int] = {}
    for mask in range(1500):
        table[(mask * 2654435761) & 1023] = mask.bit_count()
    return total.numerator + len(table)


def _unit_seconds() -> float:
    start = perf_counter()
    _unit()
    return perf_counter() - start


def speed_reading() -> float:
    """Median raw time of a few units."""
    return statistics.median(_unit_seconds() for _ in range(SAMPLE_UNITS))


def factor(before: float, after: float) -> float:
    """Multiplier from raw seconds to reference seconds for a command
    bracketed by two readings."""
    return 2 * REFERENCE_S / (before + after)
