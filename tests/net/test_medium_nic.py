"""Tests for the shared segment and the NICs."""

import pytest

from repro.net.ethernet import ETHERNET_10MB
from repro.net.medium import ChaosConfig, EthernetSegment
from repro.net.nic import NIC
from repro.sim.clock import EventScheduler


def make_segment(**kwargs):
    scheduler = EventScheduler()
    segment = EthernetSegment(scheduler, ETHERNET_10MB, **kwargs)
    return scheduler, segment


def make_nic(segment, station, **kwargs):
    nic = NIC(
        station.to_bytes(6, "big"), ETHERNET_10MB, **kwargs
    )
    segment.attach(nic)
    received = []
    nic.kernel = FakeKernel(segment, received.append)
    return nic, received


class FakeKernel:
    """Stand-in kernel: everything the NIC reads, no overload control,
    no ledger, and frames recorded instead of interrupting."""

    name = "fake"
    ledger = rx_policy = buffer_pool = None

    def __init__(self, segment, record):
        self.scheduler = segment.scheduler
        self.record = record

    def account(self, primitive, cost=0.0, **charge):
        pass

    def network_input(self, nic, frame, packet_id=None):
        self.record(frame)


def frame_to(station, payload=b"data"):
    return ETHERNET_10MB.frame(
        station.to_bytes(6, "big"), (99).to_bytes(6, "big"), 0x0900, payload
    )


class TestDelivery:
    def test_addressed_frame_delivered(self):
        scheduler, segment = make_segment()
        sender, _ = make_nic(segment, 1)
        receiver, got = make_nic(segment, 2)
        sender.transmit(frame_to(2))
        scheduler.run()
        assert len(got) == 1

    def test_other_stations_ignore(self):
        scheduler, segment = make_segment()
        sender, _ = make_nic(segment, 1)
        receiver, got = make_nic(segment, 2)
        bystander, other = make_nic(segment, 3)
        sender.transmit(frame_to(2))
        scheduler.run()
        assert got and not other
        assert bystander.frames_ignored == 1

    def test_broadcast_reaches_everyone_but_sender(self):
        scheduler, segment = make_segment()
        sender, sender_got = make_nic(segment, 1)
        _, got_a = make_nic(segment, 2)
        _, got_b = make_nic(segment, 3)
        frame = ETHERNET_10MB.frame(
            ETHERNET_10MB.broadcast, sender.address, 0x0900, b"hello all"
        )
        sender.transmit(frame)
        scheduler.run()
        assert got_a and got_b and not sender_got

    def test_promiscuous_sees_everything(self):
        scheduler, segment = make_segment()
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 9, promiscuous=True)
        sender.transmit(frame_to(2))
        scheduler.run()
        assert len(got) == 1

    def test_serialization_delay(self):
        scheduler, segment = make_segment()
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        sender.transmit(frame_to(2, payload=bytes(1236)))  # 1250B frame
        scheduler.run()
        # 1 ms of wire time plus propagation.
        assert scheduler.now >= 1e-3

    def test_cable_is_half_duplex(self):
        scheduler, segment = make_segment()
        a, _ = make_nic(segment, 1)
        b, _ = make_nic(segment, 2)
        _, got = make_nic(segment, 3)
        a.transmit(frame_to(3, payload=bytes(1236)))
        b.transmit(frame_to(3, payload=bytes(1236)))
        scheduler.run()
        # Two back-to-back 1ms transmissions serialize.
        assert scheduler.now >= 2e-3
        assert len(got) == 2


class TestLossInjection:
    def test_loss_rate_drops_some(self):
        scheduler, segment = make_segment(seed=7)
        segment.set_chaos(ChaosConfig(loss_rate=0.5))
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        for _ in range(40):
            sender.transmit(frame_to(2))
        scheduler.run()
        assert 0 < len(got) < 40
        assert segment.frames_lost == 40 - len(got)

    def test_deterministic_with_seed(self):
        def run(seed):
            scheduler, segment = make_segment(seed=seed)
            segment.set_chaos(ChaosConfig(loss_rate=0.3))
            sender, _ = make_nic(segment, 1)
            _, got = make_nic(segment, 2)
            for _ in range(30):
                sender.transmit(frame_to(2))
            scheduler.run()
            return len(got)

        assert run(5) == run(5)

    def test_drop_filter(self):
        scheduler, segment = make_segment()
        segment.drop_filter = lambda frame, n: n == 2  # kill 2nd frame
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        for _ in range(3):
            sender.transmit(frame_to(2))
        scheduler.run()
        assert len(got) == 2

    def test_duplication(self):
        scheduler, segment = make_segment()
        segment.set_chaos(ChaosConfig(duplicate_rate=1.0))
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        sender.transmit(frame_to(2))
        scheduler.run()
        assert len(got) == 2

    def test_bad_loss_rate(self):
        with pytest.raises(ValueError):
            ChaosConfig(loss_rate=1.0)


class TestNICQueue:
    def test_input_queue_overflow_drops_and_counts(self):
        scheduler, segment = make_segment()
        sender, _ = make_nic(segment, 1)
        receiver = NIC((2).to_bytes(6, "big"), ETHERNET_10MB, input_queue_limit=2)
        segment.attach(receiver)
        receiver.kernel = FakeKernel(segment, lambda frame: None)
        # The scheduler never runs, so the queue cannot drain.
        for _ in range(5):
            receiver.receive(frame_to(2))
        assert receiver.frames_received == 2
        assert receiver.frames_dropped == 3

    def test_address_length_checked(self):
        with pytest.raises(ValueError):
            NIC(b"\x01", ETHERNET_10MB)
