"""Property tests on simulator invariants (hypothesis)."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Compute,
    PipeCreate,
    Read,
    Sleep,
    World,
    Write,
)
from repro.sim.clock import EventScheduler


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
