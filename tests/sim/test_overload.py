"""Overload control: buffer pool, admission drops, polling, kill().

The receive-livelock *shape* (interrupt collapse vs polling plateau)
is asserted by ``benchmarks/test_overload_livelock.py``; these are the
mechanism tests — pool bookkeeping, each admission drop cause landing
in the ledger under its own primitive, the polling mode transitions,
the user CPU share, and the crash-safety contract of
:meth:`SimKernel.kill`.
"""

import pytest

from repro.core.compiler import compile_expr, word
from repro.core.ioctl import PFIoctl
from repro.sim import (
    BadFileDescriptor,
    BufferPool,
    Compute,
    Ioctl,
    Open,
    ProcessKilled,
    ProcessState,
    Read,
    RxPolicy,
    Select,
    Sleep,
    World,
    Write,
)
from repro.sim.costs import FREE
from repro.sim.ledger import Primitive
from repro.sim.overload import POLL_ENTER, USER_SHARE

TYPE = 0x0900


def type_filter(priority=10):
    return compile_expr(word(6) == TYPE, priority=priority)


def frame_for(src, dst, payload=b"payload", ethertype=TYPE):
    return src.link.frame(dst.address, src.address, ethertype, payload)


# ---------------------------------------------------------------------------
# BufferPool
# ---------------------------------------------------------------------------


class TestBufferPool:
    def test_reserve_and_release(self):
        pool = BufferPool(4)
        assert pool.reserve("a") and pool.reserve("a")
        assert pool.in_use == 2 and pool.available == 2
        assert pool.held("a") == 2
        pool.release("a")
        assert pool.in_use == 1
        pool.release("a")
        assert pool.audit() == {}
        assert pool.stats.reserved == 2 and pool.stats.released == 2

    def test_capacity_is_all_or_nothing(self):
        pool = BufferPool(3)
        assert pool.reserve("a") and pool.reserve("a") and pool.reserve("b")
        assert not pool.reserve("b")      # the pool is full
        assert pool.held("b") == 1        # nothing more was taken
        assert pool.stats.denied_pool == 1
        pool.release("a")
        assert pool.reserve("b")

    def test_port_share_caps_one_owner(self):
        pool = BufferPool(8, port_share=2)
        owner = ("port", 0)
        assert pool.reserve(owner) and pool.reserve(owner)
        assert not pool.reserve(owner)
        assert pool.stats.denied_share == 1
        assert pool.at_share(owner)
        # Non-port owners (the NIC ring) are not share-limited.
        assert all(pool.reserve(("ring", "host")) for _ in range(5))

    def test_over_release_raises(self):
        pool = BufferPool(4)
        pool.reserve("a")
        with pytest.raises(ValueError):
            pool.release("a", 2)

    def test_release_all(self):
        pool = BufferPool(4)
        for _ in range(3):
            pool.reserve("a")
        assert pool.release_all("a") == 3
        assert pool.audit() == {}
        assert pool.release_all("a") == 0

    def test_peak_in_use_tracks_high_water(self):
        pool = BufferPool(4)
        for _ in range(3):
            pool.reserve("a")
        pool.release("a", 2)
        pool.reserve("b")
        assert pool.stats.peak_in_use == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferPool(0)
        with pytest.raises(ValueError):
            BufferPool(4, port_share=0)


class TestRxPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RxPolicy(shed_watermark=0)

    def test_user_gap_arithmetic(self):
        policy = RxPolicy()
        # 3 ms of receive work owes 1 ms to user processes: 25% share.
        assert USER_SHARE == 0.25
        assert policy.user_gap(0.003) == pytest.approx(0.001)
        assert policy.user_gap(0.0) == 0.0

    def test_user_gap_is_the_share_guarantee(self):
        policy = RxPolicy()
        work = 0.007
        gap = policy.user_gap(work)
        assert work / (work + gap) == pytest.approx(1.0 - USER_SHARE)


# ---------------------------------------------------------------------------
# Admission drops: each cause lands under its own primitive
# ---------------------------------------------------------------------------


def _storm_receiver(*, queue_limit=4, policy=None, pool=None):
    world = World(ledger=True)
    sender = world.host("sender", costs=FREE)
    receiver = world.host("receiver", input_queue_limit=queue_limit)
    if policy is not None or pool is not None:
        receiver.enable_overload(policy=policy, pool=pool)
    return world, sender, receiver


class TestAdmission:
    def test_ring_full_drops_as_dropped_ring(self):
        policy = RxPolicy()  # a 3-frame ring never reaches POLL_ENTER
        world, sender, receiver = _storm_receiver(
            queue_limit=3, policy=policy
        )
        frame = frame_for(sender, receiver)
        # Inject straight at the NIC before any event runs: the gated
        # service can't drain, so arrivals past the limit are refused.
        for _ in range(5):
            receiver.nic.receive(frame)
        assert receiver.nic.frames_dropped == 2
        assert len(receiver.nic._input_queue) == 3
        world.run()
        drops = world.ledger.drop_summary()
        assert drops["dropped_ring"] == 2
        assert not world.ledger.open_spans("receiver")

    def test_pool_exhaustion_drops_as_dropped_nobuf(self):
        pool = BufferPool(2)
        world, sender, receiver = _storm_receiver(
            queue_limit=16, pool=pool
        )
        frame = frame_for(sender, receiver)
        for _ in range(5):
            receiver.nic.receive(frame)
        assert receiver.nic.frames_nobuf == 3
        assert pool.held(("ring", "receiver")) == 2
        world.run()
        drops = world.ledger.drop_summary()
        assert drops["dropped_nobuf"] == 3
        # Drained ring slots went back to the pool.
        assert pool.audit() == {}

    def test_shed_watermark_drops_as_dropped_shed(self):
        policy = RxPolicy(shed_watermark=POLL_ENTER)
        world, sender, receiver = _storm_receiver(
            queue_limit=16, policy=policy
        )
        frame = frame_for(sender, receiver)
        for _ in range(POLL_ENTER + 3):
            receiver.nic.receive(frame)
        # The POLL_ENTER-th arrival crossed into polling; from then on
        # the watermark sheds at admission, before any buffer is taken.
        assert receiver.nic.polling
        assert receiver.nic.poll_mode_entries == 1
        assert receiver.nic.frames_shed == 3
        world.run()
        drops = world.ledger.drop_summary()
        assert drops["dropped_shed"] == 3
        assert not world.ledger.open_spans("receiver")
        assert not receiver.nic.polling  # drained: back to interrupts

    def test_every_wire_arrival_is_accounted(self):
        """The drop census invariant: wire arrivals partition exactly
        into closed span outcomes — nothing vanishes."""
        policy = RxPolicy(shed_watermark=POLL_ENTER + 1)
        pool = BufferPool(16)
        world, sender, receiver = _storm_receiver(
            queue_limit=POLL_ENTER + 2, policy=policy, pool=pool
        )
        frame = frame_for(sender, receiver)
        for _ in range(20):
            receiver.nic.receive(frame)
        world.run()
        spans = world.ledger.spans_for("receiver")
        assert len(spans) == 20
        assert all(span.closed for span in spans)
        nic = receiver.nic
        accounted = (
            nic.frames_received
            + nic.frames_dropped
            + nic.frames_shed
            + nic.frames_nobuf
        )
        assert accounted == 20


class TestLegacyRingDropCensus:
    def test_mitigation_window_overflow_lands_in_drop_summary(self):
        """The classic (no-policy) NIC ring drop has the same name as
        with a policy armed, ``dropped_ring``, and shows up in
        ``drop_summary()`` as a proper ChargeEvent and a closed span, so
        ``python -m repro run --profile`` accounts for every wire arrival
        on the interrupt path too."""
        world = World(ledger=True)
        sender = world.host("sender", costs=FREE)
        receiver = world.host("receiver", input_queue_limit=2)
        frame = frame_for(sender, receiver)
        for _ in range(6):
            receiver.nic.receive(frame)
        assert receiver.nic.frames_dropped == 4
        assert receiver.nic.frames_received == 2
        world.run()
        drops = world.ledger.drop_summary()
        assert drops["dropped_ring"] == 4
        assert "drop_interface" not in drops
        assert not world.ledger.open_spans("receiver")
        # The charge went through the accounting choke point, so the
        # live stats and the ledger replay can never disagree.
        assert (
            world.ledger.stats_view("receiver") == receiver.kernel.stats
        )


# ---------------------------------------------------------------------------
# Polling mode and the user CPU share
# ---------------------------------------------------------------------------


def _storm(world, sender, receiver, *, until, gap, ticks):
    """A storm plus a compute-bound user process; returns tick times."""
    frame = frame_for(sender, receiver)

    def blast():
        fd = yield Open("pf")
        yield Sleep(0.01)
        while world.now < until:
            yield Write(fd, frame)
            yield Sleep(gap)

    def reader():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
        yield Ioctl(fd, PFIoctl.SETBATCH, True)
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 32)
        while True:
            yield Read(fd)

    def worker():
        while world.now < until:
            yield Compute(0.005)
            ticks.append(world.now)

    receiver.spawn("reader", reader())
    receiver.spawn("worker", worker())
    sender.spawn("blaster", blast())
    world.run()


class TestPollingMode:
    def _run(self, mode):
        world = World(ledger=True)
        sender = world.host("sender", costs=FREE)
        receiver = world.host("receiver", input_queue_limit=64)
        sender.install_packet_filter()
        receiver.install_packet_filter(flow_cache=True)
        if mode == "polling":
            receiver.enable_overload(
                policy=RxPolicy(shed_watermark=32),
                pool=BufferPool(192, port_share=64),
            )
        ticks = []
        # ~4x the ~1.7 ms/packet saturation cost.
        _storm(world, sender, receiver, until=0.5, gap=0.0004, ticks=ticks)
        return world, receiver, ticks

    def test_storm_enters_and_exits_polling(self):
        world, receiver, _ = self._run("polling")
        nic = receiver.nic
        assert nic.poll_mode_entries > 0
        assert nic.polls > 0
        assert nic.frames_polled > 0
        assert not nic.polling  # storm over, ring drained

    def test_user_process_keeps_its_share_under_storm(self):
        """The livelock cure, seen from the starved process's side: a
        compute-bound worker on the stormed host must keep making
        progress in polling mode, far better than under naive
        interrupts where the CPU cursor races ahead of the wire."""
        _, _, interrupt_ticks = self._run("interrupt")
        _, _, polling_ticks = self._run("polling")
        in_window = [t for t in polling_ticks if t <= 0.55]
        starved = [t for t in interrupt_ticks if t <= 0.55]
        assert len(in_window) >= 3 * max(1, len(starved))
        # 25% of a 0.5 s window at 5 ms per tick = 25 ticks if the
        # guarantee held exactly; leave headroom for edges.
        assert len(in_window) >= 15

    def test_storm_reconciles_and_audits_clean(self):
        world, receiver, _ = self._run("polling")
        assert (
            world.ledger.stats_view("receiver") == receiver.kernel.stats
        )
        assert receiver.kernel.buffer_pool.audit() == {}
        assert not world.ledger.open_spans("receiver")


# ---------------------------------------------------------------------------
# SimKernel.kill: crash-safe teardown
# ---------------------------------------------------------------------------


class TestKill:
    def test_kill_blocked_reader_tears_port_down(self):
        world = World(ledger=True)
        sender = world.host("sender", costs=FREE)
        receiver = world.host("receiver")
        sender.install_packet_filter()
        receiver.install_packet_filter()
        cleaned = []

        def victim():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            try:
                while True:
                    yield Read(fd)
            finally:
                cleaned.append(world.now)  # GeneratorExit ran

        proc = receiver.spawn("victim", victim())
        world.scheduler.schedule_at(0.05, receiver.kernel.kill, proc)
        world.run()
        assert proc.state is ProcessState.FAILED
        assert isinstance(proc.error, ProcessKilled)
        assert cleaned, "the victim's finally block must run"
        assert proc.fds == {}
        assert receiver.packet_filter.demux.attached_ports() == []

    def test_kill_releases_queued_buffers(self):
        world = World(ledger=True)
        sender = world.host("sender", costs=FREE)
        receiver = world.host("receiver")
        pool = BufferPool(32, port_share=16)
        sender.install_packet_filter()
        receiver.install_packet_filter()
        receiver.kernel.buffer_pool = pool

        def victim():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Sleep(10.0)  # never reads: packets pile up queued

        def blast():
            fd = yield Open("pf")
            yield Sleep(0.01)
            for _ in range(5):
                yield Write(fd, frame_for(sender, receiver))
                yield Sleep(0.005)

        proc = receiver.spawn("victim", victim())
        sender.spawn("blaster", blast())
        world.scheduler.schedule_at(0.2, receiver.kernel.kill, proc)
        world.run()
        assert proc.state is ProcessState.FAILED
        assert pool.audit() == {}, "killed process leaked pool buffers"
        # Its queued-but-unread packets closed as closed_port.
        outcomes = [
            s.outcome for s in world.ledger.spans_for("receiver")
        ]
        assert "closed_port" in outcomes

    def test_kill_wakes_peer_blocked_on_dead_port(self):
        """A peer blocked reading the victim's port must get an error,
        not hang forever — the 'wedged demux' half of the contract."""
        world = World()
        receiver = world.host("receiver")
        receiver.install_packet_filter()
        fds = {}

        def victim():
            fd = yield Open("pf")
            fds["pf"] = fd
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Sleep(10.0)

        victim_proc = receiver.spawn("victim", victim())

        def peer():
            yield Sleep(0.01)
            fd = receiver.kernel.share_fd(
                victim_proc, fds["pf"], peer_proc
            )
            yield Read(fd)   # blocks: no traffic ever arrives

        peer_proc = receiver.spawn("peer", peer())
        world.scheduler.schedule_at(0.1, receiver.kernel.kill, victim_proc)
        world.run()
        assert peer_proc.done
        assert isinstance(peer_proc.error, BadFileDescriptor)

    def test_kill_removes_select_waiter(self):
        world = World()
        receiver = world.host("receiver")
        receiver.install_packet_filter()

        def victim():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Select((fd,))

        proc = receiver.spawn("victim", victim())
        world.scheduler.schedule_at(0.05, receiver.kernel.kill, proc)
        world.run()
        assert proc.state is ProcessState.FAILED
        assert receiver.kernel._select_waiters == []

    def test_kill_during_sleep_stays_dead(self):
        """The sleep timer fires after the kill; the completion must
        no-op instead of resurrecting the corpse."""
        world = World()
        receiver = world.host("receiver")

        def victim():
            yield Sleep(1.0)
            return "woke"

        proc = receiver.spawn("victim", victim())
        world.scheduler.schedule_at(0.2, receiver.kernel.kill, proc)
        world.run()
        assert proc.state is ProcessState.FAILED
        assert proc.result is None
        assert isinstance(proc.error, ProcessKilled)

    def test_kill_done_process_is_a_noop(self):
        world = World()
        receiver = world.host("receiver")

        def body():
            yield Sleep(0.01)
            return "done"

        proc = receiver.spawn("p", body())
        world.run()
        assert proc.result == "done"
        receiver.kernel.kill(proc)
        assert proc.state is ProcessState.DONE
        assert proc.error is None


# ---------------------------------------------------------------------------
# New primitives stay reconciliation-clean
# ---------------------------------------------------------------------------


def test_new_drop_primitives_have_distinct_summary_keys():
    assert Primitive.DROP_RING.value == "dropped_ring"
    assert Primitive.DROP_NOBUF.value == "dropped_nobuf"
    assert Primitive.DROP_SHED.value == "dropped_shed"
