"""Host-speed calibration for the timed repetitions.

The sandbox's effective speed wanders with its neighbours' load, by
20 % and more, in phases that last anywhere from milliseconds to an
hour.  Left alone, that noise is the whole spread of every host-time
metric (run-to-run quartile distance of 20-30 % of the median on
``recv_path``), and no regression bound tighter than it can hold.

So every repetition is bracketed by two runs of a fixed reference loop.
The loop touches nothing under ``src/``: a slower program slows the
repetition and not the loop, and is seen in full.  It does what the
simulator does all day — pushes and pops a heap of small dataclass
instances, resumes a generator, slices bytes into a dict — because
interference that costs memory traffic slows that kind of code more
than it slows arithmetic: over 32 one-minute samples of ``recv_path``
this loop's time correlated 0.91 with the repetitions' (a loop of pure
integer arithmetic: 0.72), and dividing by it took the run-to-run
coefficient of variation from 4.4 % to 1.9 %.

A repetition's *speed factor* is the mean of its two bracketing loop
times over :data:`NOMINAL_NS`, the loop's time on the 2-core sandbox in
a quiet phase: 1.0 when the host ran at that speed, 1.3 when it ran
30 % slow.  The repetition's wall time is divided by it.  A calibrated
second is therefore a second of a host on which the loop takes
:data:`NOMINAL_NS`, whatever this host was doing meanwhile — which also
takes out the drift of the host's quiet speed itself (4.0 ms one hour,
3.55 ms the next, for the arithmetic loop).

What survives calibration is still one-sided (interference the loop did
not see only ever adds time), so ``pkts_per_s`` reports the upper
quartile of the calibrated per-repetition rates rather than their
median.

The one thing calibration hides is a change that slows the whole
interpreter (a trace hook, a busy background thread): it slows the loop
too.  The uncalibrated median is written beside every value for that
reason.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

__all__ = ["NOMINAL_NS", "reference_ns", "speed_factors"]

NOMINAL_NS = 3_500_000
ITERATIONS = 2_000

_BUFFER = bytes(range(256)) * 4


@dataclass(order=True)
class _Item:
    when: float
    sequence: int
    payload: object = None


def _echo():
    value = 0
    while True:
        value = yield value


def reference_ns() -> int:
    """Host time of the fixed reference loop."""
    start = time.perf_counter_ns()
    heap: list[_Item] = []
    table: dict[int, bytes] = {}
    resume = _echo()
    next(resume)
    for i in range(ITERATIONS):
        heapq.heappush(heap, _Item(i * 0.37 % 11, i, table))
        if i & 1:
            item = heapq.heappop(heap)
            offset = resume.send(item.sequence) & 127
            table[item.sequence & 255] = _BUFFER[offset:offset + 64]
    return time.perf_counter_ns() - start


def speed_factors(brackets: list[tuple[int, int]]) -> list[float]:
    """Per repetition: how much slower than the nominal host this one
    ran, from the ``(before, after)`` loop times around each."""
    return [(before + after) / 2 / NOMINAL_NS for before, after in brackets]
