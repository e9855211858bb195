"""The charge ledger: unit behaviour and the reconciliation invariant.

The invariant the ledger refactor rests on: the ledger is not a second
bookkeeping system that can drift from :class:`KernelStats`.  Every
charge site — ``SimKernel.account`` and the receive, filter and send
path folds — updates the live counters and appends the ledger events in
the same call, so replaying the event stream (:meth:`Ledger.stats_view`)
must reproduce the live stats *exactly*: bitwise-equal floats, identical
integers, for every engine and under chaos.  A fold writes out the
counter bumps ``apply_counters`` would make, so the census test and the
on/off oracle below check it against that rule.
"""

import pytest

from repro.bench.scenarios import ACCEPTANCE_CHAOS, CHAOS_SOAKS, run_bsp_chaos
from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine
from repro.core.ioctl import PFIoctl
from repro.sim import Ioctl, Open, Read, Sleep, World, Write
from repro.sim.ledger import (
    DROP_PRIMITIVES,
    Ledger,
    PacketSpan,
    Primitive,
    STAGE_ENQUEUE,
    STAGE_INTERRUPT,
    STAGE_WIRE_ARRIVAL,
)

from .test_batched_input import ETHERTYPE, deliver, make_frame, monitor_world

TYPE = 0x0900
STRAY_TYPE = 0x0801   # no handler, no filter: goes unclaimed

ENGINES = tuple(Engine)


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------


class TestLedgerUnit:
    def test_record_totals_and_marks(self):
        ledger = Ledger()
        ledger.record(Primitive.SYSCALL, host="a", at=0.0, cost=0.25)
        mark = ledger.mark()
        ledger.record(Primitive.COPY, host="a", at=0.1, cost=0.5, quantity=64)
        ledger.record(Primitive.SYSCALL, host="b", at=0.2, cost=0.25)
        assert ledger.total_cost() == pytest.approx(1.0)
        assert ledger.total_cost(host="a") == pytest.approx(0.75)
        assert ledger.total_cost(host="a", start=mark) == pytest.approx(0.5)
        breakdown = ledger.breakdown("a")
        assert breakdown["copy"] == {"events": 1, "quantity": 64, "cost": 0.5}

    def test_span_lifecycle_and_idempotent_close(self):
        ledger = Ledger()
        pid = ledger.begin_packet("a", at=0.0, stage=STAGE_WIRE_ARRIVAL)
        ledger.stage(pid, STAGE_INTERRUPT, 0.1)
        ledger.close_packet(pid, "delivered", 0.2)
        ledger.close_packet(pid, "flushed", 0.3)      # first close wins
        ledger.stage(pid, STAGE_ENQUEUE, 0.4)         # no-op after close
        span = ledger.spans[pid]
        assert span.outcome == "delivered"
        assert span.closed_at == 0.2
        assert [name for name, _ in span.stages] == [
            STAGE_WIRE_ARRIVAL, STAGE_INTERRUPT,
        ]
        assert span.problems() == []

    def test_span_problem_detection(self):
        backwards = PacketSpan(packet_id=1, host="a")
        backwards.stages = [
            (STAGE_WIRE_ARRIVAL, 1.0), (STAGE_INTERRUPT, 0.5),
        ]
        assert any("backwards" in p for p in backwards.problems())

        out_of_order = PacketSpan(packet_id=2, host="a")
        out_of_order.stages = [
            (STAGE_ENQUEUE, 0.0), (STAGE_INTERRUPT, 0.1),
        ]
        assert any("order" in p for p in out_of_order.problems())

    def test_drop_summary_aggregates_all_drop_primitives(self):
        ledger = Ledger()
        for primitive in DROP_PRIMITIVES:
            host = "wire" if primitive.value.startswith("wire") else "a"
            ledger.record(primitive, host=host, at=0.0)
            ledger.record(primitive, host=host, at=0.1)
        summary = ledger.drop_summary()
        assert summary == {p.value: 2 for p in DROP_PRIMITIVES}
        # Host-scoped summaries still include the wire's losses: a frame
        # lost on the wire was dropped on the way to *some* host.
        scoped = ledger.drop_summary("a")
        assert scoped == summary

    def test_windowed_aggregation_slices_from_the_mark(self):
        """``start=mark`` aggregation must slice the event list at the
        mark, never rescan from index zero — the O(window) guarantee
        benchmark baselines rely on."""

        class SliceSpy(list):
            def __init__(self, *args):
                super().__init__(*args)
                self.slice_starts = []

            def __getitem__(self, key):
                if isinstance(key, slice):
                    self.slice_starts.append(key.start)
                return super().__getitem__(key)

        ledger = Ledger()
        for n in range(100):
            ledger.record(
                Primitive.SYSCALL, host="a", at=float(n), cost=0.1
            )
        ledger.events = SliceSpy(ledger.events)
        mark = ledger.mark()
        ledger.record(Primitive.DROP_OVERFLOW, host="a", at=100.0)
        spy = ledger.events
        spy.slice_starts.clear()

        assert [e.primitive for e in ledger.iter_events("a", start=mark)] == [
            Primitive.DROP_OVERFLOW
        ]
        assert ledger.total_cost("a", start=mark) == 0.0
        assert spy.slice_starts and all(
            start == mark for start in spy.slice_starts
        )

    def test_window_beyond_end_is_empty_not_an_error(self):
        ledger = Ledger()
        ledger.record(Primitive.SYSCALL, host="a", at=0.0, cost=0.1)
        beyond = ledger.mark() + 50
        assert list(ledger.iter_events(start=beyond)) == []
        assert ledger.total_cost(start=beyond) == 0.0

    def test_empty_window_aggregations_return_empty(self):
        """Regression: pure-drop runs and empty windows must yield
        empty summaries, not raise (satellite hardening check)."""
        ledger = Ledger()
        assert ledger.stage_percentiles() == {}
        assert ledger.drop_summary() == {}
        assert ledger.breakdown() == {}
        assert ledger.total_cost() == 0.0
        # spans that never reach the end stage contribute nothing
        pid = ledger.begin_packet("a", at=0.0, stage=STAGE_WIRE_ARRIVAL)
        ledger.close_packet(pid, "dropped_overflow", 0.1)
        assert ledger.stage_percentiles(host="a") == {}

    def test_stage_percentiles_nearest_rank(self):
        ledger = Ledger()
        for index, latency in enumerate([0.010, 0.020, 0.030, 0.040]):
            pid = ledger.begin_packet("a", at=float(index), stage=STAGE_WIRE_ARRIVAL)
            ledger.close_packet(pid, "delivered", float(index))
            span = ledger.spans[pid]
            span.stages.append(("syscall_return", float(index) + latency))
        pcts = ledger.stage_percentiles(host="a")
        assert pcts[0.5] == pytest.approx(0.020)
        assert pcts[0.99] == pytest.approx(0.040)
        assert ledger.stage_percentiles(host="nobody") == {}


# ---------------------------------------------------------------------------
# Reconciliation: ledger replay == live stats, exactly
# ---------------------------------------------------------------------------


def run_pf_workload(engine: Engine, frames: int = 6, ledger: bool = True):
    """The canonical two-host packet-filter exchange, ledger enabled
    unless ``ledger`` is False.

    The sender also emits one stray-ethertype frame nobody claims, so
    the UNCLAIMED accounting path is always part of what reconciliation
    checks.
    """
    world = World(ledger=ledger)
    alice = world.host("alice")
    bob = world.host("bob")
    alice.install_packet_filter(engine=engine)
    bob.install_packet_filter(engine=engine)

    def receiver():
        fd = yield Open("pf")
        yield Ioctl(
            fd, PFIoctl.SETFILTER, compile_expr(word(6) == TYPE, priority=10)
        )
        got = 0
        while got < frames:
            got += len((yield Read(fd)))
        return got

    def sender():
        fd = yield Open("pf")
        yield Sleep(0.01)
        for n in range(frames):
            frame = alice.link.frame(
                bob.address, alice.address, TYPE, bytes(40 + n)
            )
            yield Write(fd, frame)
            yield Sleep(0.002)
        yield Write(fd, alice.link.frame(
            bob.address, alice.address, STRAY_TYPE, b"stray"
        ))
        yield Sleep(0.01)

    rx = bob.spawn("rx", receiver())
    tx = alice.spawn("tx", sender())
    world.run_until_done(rx, tx)
    return world, alice, bob


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_ledger_reconciles_with_kernel_stats(engine):
    world, alice, bob = run_pf_workload(engine)
    for host in (alice, bob):
        assert world.ledger.stats_view(host.name) == host.kernel.stats


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.value)
def test_counters_match_event_census(engine):
    """Each KernelStats counter equals the count (or summed quantity)
    of its primitive's events — no charge site bypasses the ledger."""
    world, alice, bob = run_pf_workload(engine)
    for host in (alice, bob):
        stats = host.kernel.stats
        census = world.ledger.breakdown(host.name)

        def events(primitive):
            return census.get(primitive.value, {"events": 0})["events"]

        def quantity(primitive):
            return census.get(primitive.value, {"quantity": 0})["quantity"]

        assert stats.syscalls == events(Primitive.SYSCALL)
        assert stats.domain_crossings == 2 * events(Primitive.SYSCALL)
        assert stats.context_switches == events(Primitive.CONTEXT_SWITCH)
        assert stats.copies == events(Primitive.COPY)
        assert stats.bytes_copied == quantity(Primitive.COPY)
        assert stats.wakeups == events(Primitive.WAKEUP)
        assert stats.interrupts == events(Primitive.INTERRUPT)
        assert stats.frames_received == events(Primitive.FRAME_RX)
        assert stats.frames_sent == events(Primitive.DRIVER_SEND)
        assert stats.packets_unclaimed == events(Primitive.UNCLAIMED)
        assert stats.signals_posted == events(Primitive.SIGNAL)
        assert stats.filter_predicates == quantity(Primitive.FILTER_PREDICATE)
        assert stats.filter_instructions == quantity(
            Primitive.FILTER_INSTRUCTION
        )


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.name)
def test_account_and_replay_cannot_drift(primitive):
    """Every member, so a new one cannot be missed: what ``account``
    books live is what ``stats_view`` replays — ``cpu_time`` bit for
    bit — and the live books do not depend on the ledger being on."""

    def booked(ledger: bool):
        world = World(ledger=ledger)
        kernel = world.host("solo").kernel
        kernel.account(Primitive.COMPUTE, 0.1)   # so the sums below round
        kernel.account(primitive, 0.2, quantity=7, component="test")
        kernel.account(primitive, 1e-7, quantity=3, component="test")
        return world, kernel.stats

    world, live = booked(ledger=True)
    replayed = world.ledger.stats_view("solo")
    assert replayed == live
    assert replayed.cpu_time.hex() == live.cpu_time.hex()
    assert live.cpu_time == 0.1 + 0.2 + 1e-7
    _, unledgered = booked(ledger=False)
    assert unledgered == live
    assert unledgered.cpu_time.hex() == live.cpu_time.hex()


def test_chaos_soak_reconciles():
    """Reconciliation holds under the acceptance chaos profile too —
    loss, corruption, duplication and every drop path included."""
    result = run_bsp_chaos(seed=11, ledger=True)
    assert result["intact"]
    world = result["world"]
    for host in world.hosts:
        assert world.ledger.stats_view(host.name) == host.kernel.stats
    # The PR-2 drop counters surface through one uniform summary.
    assert result["drops"].get("wire_loss", 0) > 0
    known = {p.value for p in DROP_PRIMITIVES}
    assert set(result["drops"]) <= known


def booked_worlds(ledger: bool) -> list:
    """``(world, host)`` for every host of the worlds the on/off oracle
    compares: the canonical exchange on each engine; a batched-input
    world whose timestamping port holds two, fed one burst and then
    frame by frame; and the BSP chaos soak."""
    booked = []
    for engine in ENGINES:
        world, alice, bob = run_pf_workload(engine, ledger=ledger)
        booked += [(world, alice), (world, bob)]
    world, monitor = monitor_world(
        ledger=ledger, queue_limit=2, timestamping=True
    )
    frames = [
        make_frame(world, ETHERTYPE if n % 2 else 0x7777, bytes(8 + 61 * n))
        for n in range(8)
    ]
    deliver(world, monitor, frames, burst=True)
    deliver(world, monitor, frames[:4], burst=False)
    booked.append((world, monitor))
    populate, _ = CHAOS_SOAKS["bsp"]
    world = World(seed=11, ledger=ledger)
    watch, _ = populate(world, chaos=ACCEPTANCE_CHAOS, seed=11)
    world.run_until_done(*watch)
    booked += [(world, host) for host in world.hosts]
    return booked


def test_books_agree_with_the_ledger_on_and_off():
    """Whole worlds book the same stats with the ledger on and off, and
    both equal the ledger's replay — floats bit for bit, the CPU cursor
    included.  A path fold that sums its charges in another order, or
    bumps a counter only on one side of its ledger branch, fails here."""
    on, off = booked_worlds(ledger=True), booked_worlds(ledger=False)
    assert [host.name for _, host in on] == [host.name for _, host in off]
    for (world, live), (_, unledgered) in zip(on, off):
        replayed = world.ledger.stats_view(live.name)
        books = (replayed, live.kernel.stats, unledgered.kernel.stats)
        assert books[0] == books[1] == books[2], live.name
        assert len({stats.cpu_time.hex() for stats in books}) == 1, live.name
        assert (
            live.kernel._cpu_free_at.hex()
            == unledgered.kernel._cpu_free_at.hex()
        ), live.name


def test_disabled_ledger_stays_off():
    """The default world charges stats exactly as before and records
    nothing — the zero-overhead-when-disabled contract."""
    world = World()
    host = world.host("solo")
    assert world.ledger is None
    assert host.kernel.ledger is None
    host.kernel.account(Primitive.SYSCALL, 0.25)
    assert host.kernel.stats.syscalls == 1
    assert host.kernel.stats.cpu_time == pytest.approx(0.25)
