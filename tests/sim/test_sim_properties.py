"""Property tests on simulator invariants (hypothesis)."""

import bisect
import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.topologies import named_topology
from repro.core import PFIoctl, compile_expr, word
from repro.difftest.sharding import outcome_digest, stats_digest
from repro.net.medium import EthernetSegment
from repro.sim import (
    Compute,
    Ioctl,
    Open,
    PipeCreate,
    Read,
    Sleep,
    World,
    Write,
)
from repro.sim.clock import EventScheduler
from repro.sim.kernel import SimKernel
from repro.sim.orchestrator import run_topology
from repro.sim.topology import SegmentSpec, TopologySpec


class ModelScheduler:
    """What :class:`EventScheduler` promises, as a sorted list.

    Entries are ``(time, sequence, label, spawns)``; cancelling deletes
    the entry there and then, so nothing here knows about lazily
    discarded heap entries.  An entry that ``spawns`` schedules a child
    at the instant it fires — which must queue behind everything
    already waiting at that instant.
    """

    def __init__(self):
        self.now = 0.0
        self.sequence = 0
        self.queue = []
        self.fired = []

    def add(self, time, label, spawns):
        bisect.insort(self.queue, (time, self.sequence, label, spawns))
        self.sequence += 1

    def cancel(self, label):
        self.queue = [entry for entry in self.queue if entry[2] != label]

    def next_time(self):
        return self.queue[0][0] if self.queue else None

    def step(self):
        if not self.queue:
            return False
        self.now, _, label, spawns = self.queue.pop(0)
        self.fired.append((label, self.now))
        if spawns:
            self.add(self.now, ("child", label), False)
        return True

    def run(self, until, max_events):
        fired = 0
        while self.queue:
            if max_events is not None and fired >= max_events:
                return self.now
            if until is not None and self.queue[0][0] > until:
                break
            self.step()
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, horizon):
        fired = 0
        while self.queue and self.queue[0][0] < horizon:
            self.step()
            fired += 1
        self.now = horizon
        return fired


# Quarter-second ticks: few distinct values, so same-instant ties,
# horizons that land exactly on an event and zero delays are common.
_ticks = st.integers(0, 8).map(lambda n: n * 0.25)
_scheduler_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _ticks, st.booleans()),
        st.tuples(st.just("schedule_at"), _ticks, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 1000)),
        st.tuples(st.just("step")),
        st.tuples(
            st.just("run"), st.none() | _ticks, st.none() | st.integers(0, 4)
        ),
        st.tuples(st.just("run_until"), _ticks),
    ),
    max_size=40,
)


class TestSchedulerProperties:
    @given(_scheduler_ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_list_model(self, ops):
        """Arbitrary interleavings of every public operation agree with
        the model after each step: what fired, in which order and at
        what time, the clock, ``events_fired``, ``pending`` and
        ``next_time`` — including cancelling the head, cancelling what
        already fired, and events that schedule at the current instant."""
        scheduler = EventScheduler()
        model = ModelScheduler()
        fired = []
        events = {}   # label -> Event, in creation order (children too)

        def fire(label, spawns):
            fired.append((label, scheduler.now))
            if spawns:
                child = ("child", label)
                events[child] = scheduler.schedule(0.0, fire, child, False)

        for number, (op, *args) in enumerate(ops):
            if op in ("schedule", "schedule_at"):
                offset, spawns = args
                if op == "schedule":
                    event = scheduler.schedule(offset, fire, number, spawns)
                else:
                    event = scheduler.schedule_at(
                        scheduler.now + offset, fire, number, spawns
                    )
                events[number] = event
                model.add(model.now + offset, number, spawns)
                assert event.time == model.now + offset
            elif op == "cancel":
                if events:
                    label = list(events)[args[0] % len(events)]
                    events[label].cancel()
                    model.cancel(label)
            elif op == "step":
                assert scheduler.step() == model.step()
            elif op == "run":
                until, max_events = args
                if until is not None:
                    until += model.now
                assert scheduler.run(until, max_events) == model.run(
                    until, max_events
                )
            else:
                horizon = model.now + args[0]
                assert scheduler.run_until(horizon) == model.run_until(horizon)
            assert fired == model.fired
            assert scheduler.now == model.now
            assert scheduler.events_fired == len(model.fired)
            assert scheduler.pending() == len(model.queue)
            assert scheduler.next_time() == model.next_time()

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=30))
    def test_fired_in_nondecreasing_time_order(self, delays):
        scheduler = EventScheduler()
        fired = []
        for delay in delays:
            scheduler.schedule(delay, lambda d=delay: fired.append(scheduler.now))
        scheduler.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=2, max_size=20),
        st.data(),
    )
    def test_cancellation_removes_exactly_those(self, delays, data):
        scheduler = EventScheduler()
        events = []
        fired = []
        for index, delay in enumerate(delays):
            events.append(
                scheduler.schedule(delay, lambda i=index: fired.append(i))
            )
        to_cancel = data.draw(
            st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
        )
        for index in to_cancel:
            events[index].cancel()
        scheduler.run()
        assert sorted(fired) == sorted(set(range(len(delays))) - to_cancel)


class TestPipeProperties:
    @given(
        st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_preserves_byte_sequence(self, chunks):
        """Whatever the chunking, the reader sees the concatenation."""
        world = World()
        host = world.host("h")
        expected = b"".join(chunks)

        def body():
            rfd, wfd = yield PipeCreate()
            for chunk in chunks:
                yield Write(wfd, chunk)
            received = bytearray()
            while len(received) < len(expected):
                received.extend((yield Read(rfd)))
            return bytes(received)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == expected

    @given(
        st.binary(min_size=1, max_size=300),
        st.lists(st.integers(1, 64), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sized_reads_reassemble(self, payload, read_sizes):
        world = World()
        host = world.host("h")

        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, payload)
            received = bytearray()
            sizes = iter(read_sizes)
            while len(received) < len(payload):
                size = next(sizes, 64)
                received.extend((yield Read(rfd, size)))
            return bytes(received)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == payload


class TestAccountingProperties:
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=0.01, allow_nan=False),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cpu_time_is_sum_of_charges(self, durations):
        world = World()
        host = world.host("h")

        def body():
            for duration in durations:
                yield Compute(duration)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        syscall_overhead = host.kernel.costs.syscall * len(durations)
        assert host.stats.cpu_time == pytest.approx(
            sum(durations) + syscall_overhead
        )

    @given(st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_determinism_across_runs(self, sleeps, computes):
        def run():
            world = World()
            host = world.host("h")

            def body():
                for index in range(sleeps):
                    yield Sleep(0.001 * (index + 1))
                for index in range(computes):
                    yield Compute(0.0005 * (index + 1))

            proc = host.spawn("p", body())
            world.run_until_done(proc)
            return world.now, host.stats.cpu_time, host.stats.syscalls

        assert run() == run()


# -- event folding: folded equals unfolded ------------------------------------

TIE_TYPE = 0x0C47


def per_station_deliver(self, sender, frame, deliver_at):
    """The unfolded reference: one ``receive`` event per station."""
    for nic in self._nics:
        if nic is not sender:
            self.scheduler.schedule_at(deliver_at, nic.receive, frame)


def wake_by_complete(self, process):
    """The unfolded reference: a sleep timer only ever ``complete``s."""
    self.complete(process, None)


def arrive_without_handoffs(self, nics, sender, frame):
    """The unfolded reference: no NIC hands its receive interrupt to the
    arrival, so each schedules its own service event."""
    for nic in nics:
        if nic is not sender:
            nic.receive(frame)


def services_unfolded():
    """Only the receive-interrupt fold patched back."""
    return mock.patch.object(EthernetSegment, "_arrive", arrive_without_handoffs)


@contextlib.contextmanager
def unfolded():
    """All three folds patched back to the event-per-step design."""
    with mock.patch.object(
        EthernetSegment, "_deliver", per_station_deliver
    ), services_unfolded(), mock.patch.object(
        SimKernel, "_wake", wake_by_complete
    ):
        yield


def tie_builder(ctx, *, plans, naps):
    """Senders pacing frames at one another and a promiscuous monitor,
    every host reading ``TIE_TYPE`` through the packet filter; the
    monitor also runs sleepers that all nap on the same grid."""
    hosts = [ctx.host(f"h{index}") for index in range(len(plans))]
    monitor = ctx.host("monitor", promiscuous=True)
    link = monitor.link
    for host in hosts + [monitor]:
        host.install_packet_filter()

    def reader():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
        yield Ioctl(
            fd, PFIoctl.SETFILTER,
            compile_expr(word(link.header_length // 2 - 1) == TIE_TYPE),
        )
        while True:
            yield Read(fd)

    def sender(host, plan):
        fd = yield Open("pf")
        for kind, argument in plan:
            if kind == "sleep":
                yield Sleep(argument)
            elif kind == "compute":
                yield Compute(argument)
            else:
                target = hosts[argument % len(hosts)]
                destination = (
                    link.broadcast if target is host else target.address
                )
                yield Write(fd, link.frame(
                    destination, host.address, TIE_TYPE, bytes(46),
                ))

    def sleeper():
        for nap in naps:
            yield Sleep(nap)

    for host, plan in zip(hosts, plans):
        host.spawn("reader", reader())
        host.spawn("sender", sender(host, plan))
    monitor.spawn("reader", reader())
    for index in range(2):
        monitor.spawn(f"sleeper{index}", sleeper())


def run_tie_world(plans, naps):
    spec = TopologySpec(
        segments=(
            SegmentSpec("lan0", tie_builder, {"plans": plans, "naps": naps}),
        ),
        ledger=True,
    )
    result = run_topology(spec, shards=1)
    return (
        list(result.ledger.events),
        stats_digest(result),
        outcome_digest(result),
        result.events_fired,
    )


# A millisecond grid: sleeps and paces coincide across processes and
# hosts, so same-instant wakes and arrivals are common.
_grid = st.integers(0, 3).map(lambda n: n * 1e-3)
_step = st.one_of(
    st.tuples(st.just("sleep"), _grid),
    st.tuples(st.just("compute"), st.sampled_from((1e-4, 1e-3))),
    st.tuples(st.just("send"), st.integers(0, 3)),
)
_plan = st.lists(_step, max_size=8).map(
    lambda steps: tuple(steps) + (("send", 1),)
)


class TestEventFolding:
    """One frame on the cable is one event, its receive interrupts run
    inside it, and a sleeper wakes inside its own timer, each when
    nothing else is due: the folds must leave every simulated number
    exactly where the per-station, event-per-service, ``complete``-only
    design put it."""

    @given(
        st.lists(_plan, min_size=2, max_size=3).map(tuple),
        st.lists(_grid, max_size=6).map(tuple),
    )
    @settings(max_examples=40, deadline=None)
    def test_folded_equals_unfolded(self, plans, naps):
        charges, stats, outcome, events = run_tie_world(plans, naps)
        with unfolded():
            ref_charges, ref_stats, ref_outcome, ref_events = run_tie_world(
                plans, naps
            )
        assert charges == ref_charges
        assert stats == ref_stats
        assert outcome == ref_outcome
        assert events < ref_events  # every world sends a frame to fold

    def test_nic_attached_after_a_transmit_misses_that_frame(self):
        world = World()
        sender = world.host("sender")
        receiver = world.host("receiver")
        link = world.link
        sender.nic.transmit(
            link.frame(receiver.address, sender.address, TIE_TYPE, bytes(46))
        )
        late = world.host("late", promiscuous=True)
        world.run()
        assert receiver.nic.frames_received == 1
        assert late.nic.frames_received == late.nic.frames_ignored == 0
        sender.nic.transmit(
            link.frame(receiver.address, sender.address, TIE_TYPE, bytes(46))
        )
        world.run()
        assert late.nic.frames_received == 1

    def test_same_instant_sleepers_resume_in_complete_order(self):
        def run():
            world = World(ledger=True)
            host = world.host("h")
            order = []

            def sleeper(name):
                for nap in (1e-3, 1e-3, 0.0):
                    yield Sleep(nap)
                    order.append((name, world.now))

            processes = [
                host.spawn(name, sleeper(name)) for name in ("a", "b", "c")
            ]
            world.run_until_done(*processes)
            return order, list(world.ledger.events)

        folded = run()
        with unfolded():
            assert run() == folded
        names = [name for name, _ in folded[0]]
        assert names == ["a", "b", "c"] * 3

    def test_service_waits_behind_an_event_due_at_its_arrival(self):
        def run():
            world = World(ledger=True)
            sender = world.host("sender")
            receiver = world.host("receiver")
            link = world.link
            sender.nic.transmit(
                link.frame(receiver.address, sender.address, TIE_TYPE, bytes(46))
            )
            seen = []
            world.scheduler.schedule_at(
                world.scheduler.next_time(),
                lambda: seen.append(receiver.kernel.stats.interrupts),
            )
            world.run()
            return seen, receiver.kernel.stats.interrupts, list(world.ledger.events)

        folded = run()
        with unfolded():
            assert run() == folded
        assert folded[:2] == ([0], 1)   # the tie fired before the service

    def test_service_handed_over_after_a_gated_one_waits_behind_it(self):
        # ``gated`` has an overload policy and a free CPU, so its receive
        # schedules a service at the arrival instant mid-loop; ``last``
        # is handed over after that and must run behind it.
        def run():
            world = World(ledger=True)
            sender = world.host("sender")
            hosts = [world.host(name) for name in ("first", "gated", "last")]
            hosts[1].enable_overload()
            link = world.link
            sender.nic.transmit(
                link.frame(link.broadcast, sender.address, TIE_TYPE, bytes(46))
            )
            world.run()
            return [
                (event.host, event.primitive) for event in world.ledger.events
            ]

        folded = run()
        with unfolded():
            assert run() == folded
        assert [host for host, _ in folded[::4]] == ["first", "gated", "last"]

    def test_direct_receive_outside_an_arrival_still_delivers(self):
        world = World()
        receiver = world.host("receiver")
        receiver.install_packet_filter()
        link = world.link
        got = []

        def reader():
            fd = yield Open("pf")
            yield Ioctl(
                fd, PFIoctl.SETFILTER,
                compile_expr(word(link.header_length // 2 - 1) == TIE_TYPE),
            )
            got.extend((yield Read(fd)))

        process = receiver.spawn("reader", reader())
        world.run()   # the reader binds its filter and blocks
        frame = link.frame(
            receiver.address, bytes(link.address_length), TIE_TYPE, bytes(46)
        )
        receiver.nic.receive(frame)
        assert world.scheduler.pending() == 1   # its own service event
        world.run_until_done(process)
        assert [packet.data for packet in got] == [frame]

    def test_each_serviced_frame_is_one_event_fewer(self):
        spec = named_topology("receive")
        folded = run_topology(spec, shards=1)
        with services_unfolded():
            reference = run_topology(spec, shards=1)
        serviced = folded.total.frames_received
        assert serviced == reference.total.frames_received >= 40
        assert stats_digest(folded) == stats_digest(reference)
        assert outcome_digest(folded) == outcome_digest(reference)
        assert reference.events_fired - folded.events_fired == serviced
