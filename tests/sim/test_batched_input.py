"""The batched receive path: one interrupt charge per burst.

``SimKernel.network_input_batch`` (what the ``RxPolicy`` poll loop hands
each quantum to) charges interrupt service once for a burst and passes
every filter-bound frame to the packet-filter device in one
``packets_arrived`` call (one ``pf_fixed`` charge).  Delivery semantics
must be indistinguishable from the per-frame path.
"""

from collections import Counter

from repro.core.compiler import compile_expr, word
from repro.core.ioctl import PFIoctl
from repro.sim.process import Ioctl, Open, SigWait
from repro.sim.world import World

ETHERTYPE = 0x0900


def monitor_world(*, ledger=False, queue_limit=64, timestamping=False):
    """A world with one packet-filtering host accepting ETHERTYPE."""
    world = World(ledger=ledger)
    host = world.host("monitor", promiscuous=True)
    host.install_packet_filter()

    def setup():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(6) == ETHERTYPE))
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, queue_limit)
        if timestamping:
            yield Ioctl(fd, PFIoctl.SETTIMESTAMP, True)
        # Park forever: exiting would close the fd and detach the port.
        yield SigWait()

    host.spawn("setup", setup())
    world.run()
    return world, host


def deliver(world, host, frames, *, burst):
    """Hand ``frames`` up per-frame off the NIC, or as one burst."""
    if burst:
        host.kernel.network_input_batch(host.nic, frames)
    else:
        for frame in frames:
            host.nic.receive(frame)
    world.run()


def make_frame(world, ethertype, payload=b"payload!"):
    link = world.link
    dst = (1).to_bytes(link.address_length, "big")
    src = (9).to_bytes(link.address_length, "big")
    return link.frame(dst, src, ethertype, payload)


class TestBatchedInput:
    def check_batch_matches_per_frame(self, *, kernel_ethertype=None):
        """Eight frames, every other one for the filter; the rest go
        unclaimed, or to a kernel-resident handler when one is
        registered for ``kernel_ethertype``."""
        other = kernel_ethertype or 0x7777
        payloads = []
        for n in range(8):
            ethertype = ETHERTYPE if n % 2 == 0 else other
            payloads.append((ethertype, bytes([n]) * 8))

        hosts, claimed = {}, {False: [], True: []}
        for burst in (False, True):
            world, host = monitor_world()
            if kernel_ethertype is not None:
                host.kernel.register_ethertype(
                    kernel_ethertype,
                    lambda nic, frame, seen=claimed[burst]: seen.append(frame),
                )
            frames = [make_frame(world, *payload) for payload in payloads]
            deliver(world, host, frames, burst=burst)
            hosts[burst] = host

        h1, h8 = hosts[False], hosts[True]
        port1 = h1.packet_filter.demux.attached_ports()[0]
        port8 = h8.packet_filter.demux.attached_ports()[0]
        assert port8.queued == port1.queued == 4
        assert [p.data for p in port8.read_packets(None)] == [
            p.data for p in port1.read_packets(None)
        ]
        unclaimed = 0 if kernel_ethertype is not None else 4
        assert h8.kernel.stats.packets_unclaimed == unclaimed
        assert h1.kernel.stats.packets_unclaimed == unclaimed
        assert claimed[True] == claimed[False]
        assert len(claimed[True]) == 4 - unclaimed
        assert h8.kernel.stats.frames_received == 8

    def test_batch_semantics_match_per_frame_path(self):
        self.check_batch_matches_per_frame()

    def test_batch_semantics_match_with_a_kernel_handler_registered(self):
        self.check_batch_matches_per_frame(kernel_ethertype=0x0800)

    def test_batch_books_match_per_frame_with_the_ledger_on(self):
        """The same eight frames into a timestamping port that holds
        two, so both paths timestamp, overflow and close spans: every
        charge but the two the burst pays once is booked identically."""
        runs = {}
        for burst in (False, True):
            world, host = monitor_world(
                ledger=True, queue_limit=2, timestamping=True
            )
            mark = world.ledger.mark()
            frames = [
                make_frame(world, ETHERTYPE if n % 2 == 0 else 0x7777)
                for n in range(8)
            ]
            deliver(world, host, frames, burst=burst)
            outcomes = Counter(
                span.outcome for span in world.ledger.spans_for(host.name)
            )
            books = {}
            for event in world.ledger.iter_events(host.name, start=mark):
                row = books.setdefault(
                    event.primitive.value,
                    {"events": 0, "quantity": 0, "cost": 0.0},
                )
                row["events"] += 1
                row["quantity"] += event.quantity
                row["cost"] += event.cost
            runs[burst] = (
                books,
                outcomes,
                host.packet_filter,
            )

        (per_frame, spans1, pf1), (burst, spans8, pf8) = runs.values()
        # No kernel protocol claims a frame, so all eight reach the
        # filter: eight interrupts and eight pf_fixed become one each.
        for primitive in ("interrupt", "pf_fixed"):
            assert per_frame.pop(primitive)["events"] == 8
            assert burst.pop(primitive)["events"] == 1
        assert per_frame == burst
        assert burst["microtime"]["events"] == 2
        assert spans8 == spans1 == {
            None: 2, "unclaimed": 4, "dropped_overflow": 2
        }
        assert pf8.packets_dropped_overflow == pf1.packets_dropped_overflow == 2

    def test_batch_charges_one_interrupt_per_burst(self):
        world1, host1 = monitor_world()
        world8, host8 = monitor_world()
        for world, host, burst in (
            (world1, host1, False), (world8, host8, True)
        ):
            frames = [
                make_frame(world, ETHERTYPE, bytes([n]) * 8) for n in range(8)
            ]
            deliver(world, host, frames, burst=burst)

        assert host1.kernel.stats.interrupts == 8
        assert host8.kernel.stats.interrupts == 1
        # One interrupt-service + one pf_fixed for the whole burst
        # instead of eight of each: 7 charges of each saved.
        costs = host1.kernel.costs
        saved = 7 * (costs.interrupt_service + costs.pf_fixed)
        extra = host1.kernel.stats.delta(host8.kernel.stats)
        assert abs(extra.cpu_time - saved) < 1e-12
        assert extra.interrupts == 7

    def test_kernel_handler_still_claims_per_frame(self):
        world, host = monitor_world()
        claimed = []
        host.kernel.register_ethertype(
            0x0800, lambda nic, frame: claimed.append(frame)
        )
        frames = [make_frame(world, 0x0800), make_frame(world, ETHERTYPE)]
        deliver(world, host, frames, burst=True)
        assert len(claimed) == 1
        assert host.kernel.stats.packets_unclaimed == 0
