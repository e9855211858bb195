"""Guard: the simulator's fixed cost per received frame, counted not timed.

ROADMAP item 1(c) spends the simulator half of the host-time budget by
cutting what every event and every charge costs in Python-level calls
(``docs/PERFORMANCE.md``, "The simulator's own budget").  A wall-clock
guard for that would need a same-machine baseline; a *call count* does
not — the storm is seeded, so the number of calls the interpreter makes
to run it repeats exactly on any host.  This bench runs a fixed
four-segment flow storm under ``sys.setprofile`` and fails if

* the calls made per received frame (Python frames and C functions
  both, what ``cProfile`` totals) exceed :data:`CALLS_PER_FRAME_BUDGET`;
* the events fired per received frame exceed
  :data:`EVENTS_PER_FRAME_CEILING` — what catches a per-station arrival
  event or an unfolded sleep wake coming back;
* the ``SimKernel.account`` calls per received frame exceed
  :data:`ACCOUNT_CALLS_PER_FRAME_CEILING` — what catches a receive,
  filter or send charge that left its path's one fold;
* any ``Enum.__hash__`` frame runs under ``SimKernel.account``: a dict
  or set keyed by ``Primitive`` members hashes them in Python, once per
  charge, about four ``account`` charges a packet; or
* any ledger, telemetry or watchdog code runs at all: the storm has
  both switched off, and off means free.

The same hook counts the calls one ``PacketFilterDemux.deliver`` makes
on the 32-filter :func:`measure_demux_throughput` workload, for every
engine with and without the flow cache — the demultiplexer's hot path
as a count, with nothing to record first — and the calls per frame a
fixed user-level BSP transfer (table 6-6) makes, the Pup codec and the
BSP endpoint included, against :data:`BSP_CALLS_PER_FRAME_CEILING`.

The budget was first set per fired event: the storm took 48.4 calls an
event before the budget was spent and 33.3 after, on Python 3.10 to
3.13 alike, and 32.6 on 3.11 once the per-packet records became
slotted.  Then one frame on the cable became one event, and a sleeper
began to wake inside its own timer: events fell 9 874 → 6 083 and
calls 321 611 → 294 952, so calls per event *rose* 32.6 → 48.5 while
the work fell.  Per received frame (1 426 of them) the same change
reads 225.5 → 206.8 calls and 6.9 → 4.3 events, which is why the
guard divides by frames now.  Folding each receive, filter and send
path's fixed charges into one call took it to 207.0 → 177.1 calls and
14.0 → 4.1 ``account`` calls per frame.  Running the receive interrupt
inside its frame's arrival event, reading ``Process.done`` as a field
and booking the syscall charge in one fold took it to 177.0 → 164.7
calls, 4.27 → 3.27 events and 4.09 → 2.01 ``account`` calls per frame.
Folding the demultiplexer's queueing tail into ``deliver`` and calling
the compiled set's root function directly took it to 163.7 calls, and
one call off every engine's ``deliver`` (two off ``Engine.IR``'s).
Decoding each filter once into a plan of plain ints, run by one loop
that ``_classify`` calls with no ``_apply``, ``evaluate``, result
record or ``get_word`` between, took it to 154.8 calls, a ``CHECKED``
``deliver`` from 251.0 to 113.0 calls and a BSP frame from 236.5 to
216.5; each ceiling below sits under what undoing its own cut would
read.
"""

import enum
import sys
import types

import pytest

from repro.bench.scenarios import measure_demux_throughput, run_flow_storm
from repro.core.demux import PacketFilterDemux
from repro.protocols.bsp import BSPEndpoint
from repro.protocols.pup import PupAddress
from repro.sim import ledger, telemetry
from repro.sim.kernel import SimKernel
from repro.sim.world import World

CALLS_PER_FRAME_BUDGET = 155.5
"""Measured 154.8.  The receiver's ``CHECKED`` demultiplexer calling
``evaluate`` and the instruction-by-instruction loop again reads 163.7;
undoing any earlier cut reads more (see above)."""

EVENTS_PER_FRAME_CEILING = 3.4
"""Measured 3.27.  A service event per received frame again reads 4.27."""

ACCOUNT_CALLS_PER_FRAME_CEILING = 2.2
"""Measured 2.01: a context switch and a read copy per frame.  Any one
unfolded path charge adds ~1; the syscall charge unfolded reads 4.09."""

STORM = dict(
    segments=4,
    shards=1,
    seed=1987,
    duration=0.4,
    flows=128,
    cache_size=32,
    ledger=False,   # the path every benchmark workload times
)

OBSERVERS = (
    ledger.Ledger,
    ledger.PacketSpan,
    telemetry.Telemetry,
    telemetry.Series,
    telemetry.SeriesView,
    telemetry.WatchdogRule,
    telemetry._RuleState,
    telemetry.partition_watchdog,
    telemetry.builtin_watchdogs,
    telemetry._livelock,
    telemetry._pool_exhausted,
    telemetry._poll_residency,
    telemetry._rto_backoff_storm,
)
"""What must stay idle with the ledger and telemetry off.
The sync profile (:mod:`repro.sim.obsplane`) is not here: the supervisor
keeps it whether or not anything watches."""

DELIVER_CALLS = {
    ("checked", False): 113.0,
    ("checked", True): 7.0,
    ("prevalidated", False): 78.0,
    ("prevalidated", True): 7.0,
    ("compiled", False): 74.0,
    ("compiled", True): 7.0,
    ("ir", False): 9.0,
    ("ir", True): 7.0,
}
"""Calls per steady-state deliver, measured on Python 3.11.  The linear
engines going through ``_apply`` and ``evaluate`` to the
instruction-by-instruction loops again read 251.0 (``checked``), 215.0
(``prevalidated``) and 89.5 (``compiled``).  Calling through ``_finish`` again reads one more on every
engine, and two more on uncached ``ir`` with the ``classify`` closure
back.  A call the profile hook cannot see is not counted: a frozen
dataclass's ``object.__setattr__`` per field never shows here, which is
why ``tests/test_per_packet_records.py`` guards the slotted records."""

DELIVER_HEADROOM = 1 if sys.version_info >= (3, 12) else 0
"""For how CPython 3.12+ reports C calls to a profile hook."""

BSP_BYTES = 32 * 1024
"""The counted BSP transfer: 62 data Pups and an END, each acked, so
126 frames carried; loss-free, so the count repeats exactly."""

BSP_CALLS_PER_FRAME_CEILING = 218.0
"""Measured 216.5 on Python 3.11, each endpoint's figure 3-9 filter run
from its plan; the instruction-by-instruction interpreter again reads
236.5.  Against that 236.5, undoing one codec cut read: the sixteen
strided ``sum()`` checksum 270.5; a decode that builds and range-checks
two addresses per frame 251.5; the endpoint building a ``PupHeader``,
its address and the reply address per frame 252.3."""

BSP_HEADROOM = 8 if sys.version_info >= (3, 12) else 0
"""For how CPython 3.12+ reports C calls to a profile hook (not
measured here); it keeps the 3.12+ ceiling under every undo above."""


def code_of(*owners) -> set:
    """Every code object ``owners`` (classes or functions) define,
    nested functions and lambdas included."""
    pending = []
    for owner in owners:
        members = vars(owner).values() if isinstance(owner, type) else [owner]
        for member in members:
            if isinstance(member, property):
                member = member.fget
            if hasattr(member, "__code__"):
                pending.append(member.__code__)
    found = set()
    while pending:
        code = pending.pop()
        if code not in found:
            found.add(code)
            pending.extend(
                const for const in code.co_consts
                if isinstance(const, types.CodeType)
            )
    return found


def count_calls(job, *, scope=SimKernel.account, watched=frozenset()):
    """Run ``job`` counting calls; returns ``(result, tally)``.

    ``tally.calls`` is every call, ``tally.scoped`` the calls made by
    each outermost ``scope`` frame (its own call included),
    ``tally.enum_hashes`` the ``Enum.__hash__`` frames under ``scope``
    and ``tally.watched`` the frames run of code in ``watched``.  A
    profile hook installed before (a coverage census) is put back
    afterwards, not switched off."""
    scope_code = scope.__code__
    enum_hash = enum.Enum.__hash__.__code__
    tally = types.SimpleNamespace(calls=0, scoped=[], enum_hashes=0, watched=0)
    depth = entered = 0

    def hook(frame, event, arg):
        nonlocal depth, entered
        if event == "call":
            tally.calls += 1
            code = frame.f_code
            if code is scope_code:
                if not depth:
                    entered = tally.calls
                depth += 1
            elif code is enum_hash and depth:
                tally.enum_hashes += 1
            elif code in watched:
                tally.watched += 1
        elif event == "c_call":
            tally.calls += 1
        elif event == "return" and frame.f_code is scope_code:
            depth -= 1
            if not depth:
                tally.scoped.append(tally.calls - entered + 1)

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = job()
    finally:
        sys.setprofile(outer)
    return result, tally


def test_outer_profile_hook_survives_the_count():
    def outer(frame, event, arg):
        pass

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        count_calls(lambda: None)
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)


def test_sim_call_budget(emit):
    run_flow_storm(**STORM)  # imports and first-use caches, uncounted
    outcome, tally = count_calls(
        lambda: run_flow_storm(**STORM), watched=code_of(*OBSERVERS)
    )
    frames = outcome["frames_received"]
    events = outcome["events_fired"]
    assert frames > 1_200, "the storm did not run"
    per_frame = tally.calls / frames
    events_per_frame = events / frames
    accounts_per_frame = len(tally.scoped) / frames
    emit(
        f"flow storm: {frames} frames, {events} events, {tally.calls} calls, "
        f"{per_frame:.1f} calls/frame (budget {CALLS_PER_FRAME_BUDGET}), "
        f"{events_per_frame:.2f} events/frame "
        f"(ceiling {EVENTS_PER_FRAME_CEILING}), "
        f"{accounts_per_frame:.2f} account calls/frame "
        f"(ceiling {ACCOUNT_CALLS_PER_FRAME_CEILING}); "
        f"{tally.enum_hashes} Enum.__hash__ frames under account; "
        f"{tally.watched} ledger/telemetry/watchdog frames"
    )
    assert tally.enum_hashes == 0
    assert tally.watched == 0
    assert per_frame <= CALLS_PER_FRAME_BUDGET
    assert events_per_frame <= EVENTS_PER_FRAME_CEILING
    assert accounts_per_frame <= ACCOUNT_CALLS_PER_FRAME_CEILING


@pytest.mark.parametrize("engine, flow_cache", sorted(DELIVER_CALLS), ids=str)
def test_deliver_call_budget(emit, engine, flow_cache):
    """``min_seconds=0`` makes the workload one warm-up pass over its
    256 packets (the set compiles, the cache fills, every queue fills)
    and one steady-state pass, the one counted."""
    _, tally = count_calls(
        lambda: measure_demux_throughput(
            engine, filters=32, flow_cache=flow_cache, min_seconds=0
        ),
        scope=PacketFilterDemux.deliver,
    )
    assert len(tally.scoped) == 512
    steady = tally.scoped[256:]
    per_deliver = sum(steady) / len(steady)
    budget = DELIVER_CALLS[engine, flow_cache] + DELIVER_HEADROOM
    emit(
        f"{engine}{'+cache' if flow_cache else ''}: "
        f"{per_deliver:.2f} calls/deliver (budget {budget:.2f})"
    )
    assert per_deliver <= budget


def bsp_transfer() -> World:
    """One :data:`BSP_BYTES` stream between two user-level endpoints."""
    world = World()
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()
    source = BSPEndpoint(sender, local_socket=0x44)
    sink = BSPEndpoint(receiver, local_socket=0x35)
    destination = PupAddress(net=1, host=receiver.address[-1], socket=0x35)

    def send():
        yield from source.start()
        yield from source.send_stream(
            receiver.address, destination, bytes(BSP_BYTES)
        )

    def receive():
        yield from sink.start()
        yield from sink.recv_all()

    world.run_until_done(
        sender.spawn("bsp-source", send()),
        receiver.spawn("bsp-sink", receive()),
    )
    assert sink.stats.bytes_delivered == BSP_BYTES
    return world


def test_bsp_call_budget(emit):
    bsp_transfer()  # imports and first-use caches, uncounted
    world, tally = count_calls(bsp_transfer)
    frames = world.segment.frames_carried
    per_frame = tally.calls / frames
    emit(
        f"bsp transfer: {frames} frames, {tally.calls} calls, "
        f"{per_frame:.1f} calls/frame "
        f"(ceiling {BSP_CALLS_PER_FRAME_CEILING + BSP_HEADROOM})"
    )
    assert per_frame <= BSP_CALLS_PER_FRAME_CEILING + BSP_HEADROOM
