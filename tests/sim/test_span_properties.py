"""Property test: packet spans are well-formed whatever the world does.

Hypothesis drives the receive path through randomized worlds — engines,
per-frame interrupts or budgeted polling (the burst input path), tiny
queues, chaos on or off, receivers that stop reading
early, shrink their queue, and slam the port shut — and asserts the
span invariants the ledger promises:

* every span closes, with a declared outcome (no orphans, even on the
  loss/corruption/overflow/resize/flush/close drop paths);
* stage times never run backwards and stages appear in pipeline order;
* every cost event that names a packet names a span the ledger knows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import ACCEPTANCE_CHAOS
from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine
from repro.core.ioctl import PFIoctl
from repro.core.port import ReadTimeoutPolicy
from repro.sim import Close, Ioctl, Open, Read, Sleep, World, Write
from repro.sim.errors import SimTimeout
from repro.sim.ledger import SPAN_OUTCOMES, STAGE_WIRE_ARRIVAL
from repro.sim.overload import POLL_ENTER, RxPolicy

TYPE = 0x0900

ENGINES = tuple(Engine)


def run_workload(seed, frames, polled, engine, queue_limit, chaos_on):
    world = World(
        seed=seed,
        chaos=ACCEPTANCE_CHAOS if chaos_on else None,
        ledger=True,
    )
    sender = world.host("sender")
    # A ring just deep enough to cross into polling (two frames without
    # a policy): write bursts two frames longer overflow it, exercising
    # the dropped_ring path.
    ring = POLL_ENTER if polled else 2
    receiver = world.host("receiver", input_queue_limit=ring)
    sender.install_packet_filter()
    receiver.install_packet_filter(engine=engine)
    if polled:
        # The ring's last slot crosses the watermark, so write bursts go
        # up through the poll loop's ``network_input_batch`` quanta.
        receiver.enable_overload(policy=RxPolicy())

    def tx():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETWRITEBATCH, True)
        yield Sleep(0.01)
        sent = 0
        while sent < frames:
            group = min(ring + 2, frames - sent)
            batch = tuple(
                sender.link.frame(
                    receiver.address, sender.address, TYPE, bytes(40 + n)
                )
                for n in range(sent, sent + group)
            )
            yield Write(fd, batch if group > 1 else batch[0])
            sent += group
            yield Sleep(0.004)
        yield Sleep(0.03)

    def rx():
        fd = yield Open("pf")
        yield Ioctl(
            fd, PFIoctl.SETFILTER, compile_expr(word(6) == TYPE, priority=10)
        )
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, queue_limit)
        yield Ioctl(fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(0.05))
        got = 0
        # Stop reading halfway: whatever is still queued then rides the
        # resize and close drop paths instead of being delivered.
        while got < max(1, frames // 2):
            try:
                got += len((yield Read(fd)))
            except SimTimeout:
                break
        yield Sleep(0.02)
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 1)
        yield Close(fd)
        return got

    rx_proc = receiver.spawn("rx", rx())
    tx_proc = sender.spawn("tx", tx())
    world.run_until_done(rx_proc, tx_proc)
    world.run()   # drain any in-flight frames to quiescence
    return world


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    frames=st.integers(1, 25),
    polled=st.booleans(),
    engine=st.sampled_from(ENGINES),
    queue_limit=st.integers(1, 8),
    chaos_on=st.booleans(),
)
def test_spans_are_well_formed(
    seed, frames, polled, engine, queue_limit, chaos_on
):
    world = run_workload(seed, frames, polled, engine, queue_limit, chaos_on)
    ledger = world.ledger

    assert ledger.open_spans() == []
    for span in ledger.spans.values():
        assert span.outcome in SPAN_OUTCOMES, span
        assert span.problems() == [], (span, span.problems())
        assert span.stages[0][0] == STAGE_WIRE_ARRIVAL, span

    for event in ledger.events:
        if event.packet_id is not None:
            assert event.packet_id in ledger.spans, event

    # Reconciliation holds in every randomized world, too.
    for host in world.hosts:
        assert ledger.stats_view(host.name) == host.kernel.stats
