"""Guard: the simulator's fixed cost per fired event, counted not timed.

ROADMAP item 1(c) spends the simulator half of the host-time budget by
cutting what every event and every charge costs in Python-level calls
(``docs/PERFORMANCE.md``, "The simulator's own budget").  A wall-clock
guard for that would need a same-machine baseline; a *call count* does
not — the storm is seeded, so the number of calls the interpreter makes
to run it repeats exactly on any host.  This bench runs a fixed
four-segment flow storm under ``sys.setprofile`` and fails if

* the calls made per fired event (Python frames and C functions both,
  what ``cProfile`` totals) exceed :data:`CALLS_PER_EVENT_BUDGET` — this
  storm took 48.4 before the budget was spent and takes 33.8 after, on
  Python 3.10 to 3.13 alike; or
* any ``Enum.__hash__`` frame runs under ``SimKernel.account``: a dict
  or set keyed by ``Primitive`` members hashes them in Python, once per
  charge, fourteen charges a packet.
"""

import enum
import sys

from repro.bench.scenarios import run_flow_storm
from repro.sim.kernel import SimKernel

CALLS_PER_EVENT_BUDGET = 36.0

STORM = dict(
    segments=4,
    shards=1,
    seed=1987,
    duration=0.4,
    flows=128,
    cache_size=32,
    offered_multiplier=2.0,
    ledger=False,   # the path every benchmark workload times
)


def count_calls(job):
    """Run ``job`` counting calls; returns ``(result, calls,
    enum_hashes_under_account)``."""
    account = SimKernel.account.__code__
    enum_hash = enum.Enum.__hash__.__code__
    calls = 0
    in_account = 0
    hashes = 0

    def hook(frame, event, arg):
        nonlocal calls, in_account, hashes
        if event == "call":
            calls += 1
            code = frame.f_code
            if code is account:
                in_account += 1
            elif code is enum_hash and in_account:
                hashes += 1
        elif event == "c_call":
            calls += 1
        elif event == "return" and frame.f_code is account:
            in_account -= 1

    sys.setprofile(hook)
    try:
        result = job()
    finally:
        sys.setprofile(None)
    return result, calls, hashes


def test_sim_call_budget(emit):
    run_flow_storm(**STORM)  # imports and first-use caches, uncounted
    outcome, calls, hashes = count_calls(lambda: run_flow_storm(**STORM))
    events = outcome["events_fired"]
    assert events > 8_000, "the storm did not run"
    per_event = calls / events
    emit(
        f"flow storm: {events} events, {calls} calls, "
        f"{per_event:.1f} calls/event (budget {CALLS_PER_EVENT_BUDGET:.0f}); "
        f"{hashes} Enum.__hash__ frames under account"
    )
    assert hashes == 0
    assert per_event <= CALLS_PER_EVENT_BUDGET
