"""Tie-order independence: does a run depend on how same-time events
are ordered?

``EventScheduler`` fires events due at one instant in scheduling order.
A run whose outcome is a property of the model, not of that convention,
must not change when the convention flips.  Each test runs one
``run --list`` name twice — once as it is, once with
``EventScheduler.schedule_at`` patched to push ``(time, -sequence,
event)``, so every same-time tie breaks last-scheduled-first — and
compares the ``run --json --profile`` summaries minus what only counts
or times the run: ``wall``, ``events_fired`` and
``shard_details[].events_fired`` (an event fold fires only when its
event was provably next, so a flipped tie can move the event count
without moving an outcome).

Names that do not hold are strict-xfail with the tie named: a fix that
makes one hold turns its xfail into a failure until the mark goes.
"""

from __future__ import annotations

import heapq

import pytest

from repro.bench.summary import run_summary
from repro.bench.topologies import TOPOLOGIES, named_topology
from repro.sim.clock import Event, EventScheduler
from repro.sim.orchestrator import run_topology


def schedule_at_reversed(self, time, callback, *args):
    """``EventScheduler.schedule_at`` with same-time ties reversed."""
    if not time >= self.now:
        raise ValueError(
            f"cannot schedule at {time}, clock is already at {self.now}"
        )
    sequence = self._sequence
    self._sequence = sequence + 1
    event = Event(time, sequence, callback, args)
    heapq.heappush(self._heap, (time, -sequence, event))
    return event


def outcome(name: str) -> dict:
    """``run NAME --json --profile`` minus wall clock and event counts."""
    summary = run_summary(name, run_topology(named_topology(name)), profile=True)
    del summary["wall"], summary["events_fired"]
    for detail in summary["shard_details"]:
        del detail["events_fired"]
    return summary


POLLING_TIE = (
    "overload-polling: the receiver's SimKernel._resume (its next Read "
    "after the CPU frees) and the next NIC._poll quantum fall due at one "
    "instant; scheduling order decides whether the Read runs before or "
    "after the poll batch is queued, which moves frames_received, "
    "cpu_time and the livelock alert's fired_at"
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason=POLLING_TIE)
            if name == "overload-polling"
            else (),
        )
        for name in TOPOLOGIES
    ],
)
def test_outcome_is_free_of_tie_order(name, monkeypatch):
    expected = outcome(name)
    monkeypatch.setattr(EventScheduler, "schedule_at", schedule_at_reversed)
    assert outcome(name) == expected
