"""Tests for the chaos (fault-injection) model on the segment."""

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
    nic = NIC(station.to_bytes(6, "big"), ETHERNET_10MB, **kwargs)
    segment.attach(nic)
    received = []

    class FakeKernel:
        """Everything the NIC reads: no overload control, no ledger."""

        name = "fake"
        ledger = rx_policy = buffer_pool = None

        def __init__(self):
            self.scheduler = segment.scheduler

        def account(self, primitive, cost=0.0, **charge):
            pass

        def network_input(self, nic, frame, packet_id=None):
            received.append((segment.scheduler.now, frame))

    nic.kernel = FakeKernel()
    return nic, received


def frame_to(station, payload=b"chaos payload bytes"):
    return ETHERNET_10MB.frame(
        station.to_bytes(6, "big"), (99).to_bytes(6, "big"), 0x0900, payload
    )


class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(loss_rate=1.0)          # losing everything: no
        with pytest.raises(ValueError):
            ChaosConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(burst_loss_rate=1.0)
        with pytest.raises(ValueError):
            ChaosConfig(reorder_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(reorder_jitter=-1e-3)
        # Duplicating everything is a legal stress mode.
        ChaosConfig(duplicate_rate=1.0)

    def test_expected_loss_rate_uniform(self):
        assert ChaosConfig(loss_rate=0.25).expected_loss_rate() == 0.25

    def test_expected_loss_rate_blends_burst_states(self):
        config = ChaosConfig(
            loss_rate=0.0,
            burst_enter_rate=0.1,
            burst_exit_rate=0.3,
            burst_loss_rate=0.8,
        )
        # BAD occupancy = 0.1 / 0.4 = 0.25; loss = 0.25 * 0.8.
        assert config.expected_loss_rate() == pytest.approx(0.2)


class TestChaosInjection:
    def test_burst_loss_loses_some_not_all(self):
        scheduler, segment = make_segment(seed=3)
        segment.set_chaos(
            ChaosConfig(
                burst_enter_rate=0.2,
                burst_exit_rate=0.3,
                burst_loss_rate=0.99,
            )
        )
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        for _ in range(200):
            sender.transmit(frame_to(2))
        scheduler.run()
        assert 0 < len(got) < 200
        assert segment.frames_lost == 200 - len(got)

    def test_corruption_damages_payload_not_header(self):
        scheduler, segment = make_segment(seed=1)
        segment.set_chaos(ChaosConfig(corrupt_rate=1.0))
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        original = frame_to(2)
        sender.transmit(original)
        scheduler.run()
        [(_, delivered)] = got
        assert delivered != original
        assert segment.frames_corrupted == 1
        header = ETHERNET_10MB.header_length
        assert delivered[:header] == original[:header]
        assert delivered[header:] != original[header:]
        flipped = sum(
            bin(a ^ b).count("1") for a, b in zip(delivered, original)
        )
        assert flipped == 1

    def test_reorder_jitter_delays_delivery(self):
        def arrival(chaos):
            scheduler, segment = make_segment(seed=2)
            if chaos:
                segment.set_chaos(
                    ChaosConfig(reorder_rate=1.0, reorder_jitter=0.5)
                )
            sender, _ = make_nic(segment, 1)
            _, got = make_nic(segment, 2)
            sender.transmit(frame_to(2))
            scheduler.run()
            [(when, _)] = got
            return when, segment.frames_reordered

        clean_time, _ = arrival(chaos=False)
        jittered_time, reordered = arrival(chaos=True)
        assert reordered == 1
        assert jittered_time > clean_time

    def test_chaos_duplicate_is_distinct_later_event(self):
        """Regression: duplicates used to be scheduled for the same
        instant as the original, so no receive path could ever observe
        them out of order."""
        scheduler, segment = make_segment(seed=4)
        segment.set_chaos(ChaosConfig(duplicate_rate=1.0))
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        original = frame_to(2)
        sender.transmit(original)
        scheduler.run()
        assert len(got) == 2
        (first_time, first), (second_time, second) = got
        assert first == second == original
        wire_time = ETHERNET_10MB.transmission_time(len(original))
        assert second_time - first_time >= wire_time
        assert segment.frames_duplicated == 1

    def test_same_seed_replays_exactly(self):
        def run(seed):
            scheduler, segment = make_segment(seed=seed)
            segment.set_chaos(
                ChaosConfig(
                    loss_rate=0.2,
                    corrupt_rate=0.2,
                    reorder_rate=0.2,
                    duplicate_rate=0.2,
                )
            )
            sender, _ = make_nic(segment, 1)
            _, got = make_nic(segment, 2)
            for n in range(60):
                sender.transmit(frame_to(2, payload=bytes([n]) * 20))
            scheduler.run()
            return [(round(when, 9), frame) for when, frame in got]

        assert run(12) == run(12)
        # A topology segment's seed is derive_seed's unsigned 64 bits
        # (this is derive_seed(0, "segment", "lan0")); the chaos stream
        # used to pack it as *signed* and overflow on the top bit.
        assert run(0xA5B2315D665CAB1C) == run(0xA5B2315D665CAB1C)
        assert run(-3) != run(3)

    def test_per_sender_override_is_asymmetric(self):
        scheduler, segment = make_segment(seed=6)
        lossy, _ = make_nic(segment, 1)
        clean, _ = make_nic(segment, 2)
        _, got = make_nic(segment, 3, promiscuous=True)
        segment.set_chaos(
            ChaosConfig(loss_rate=0.99), sender=lossy.address
        )
        for _ in range(50):
            lossy.transmit(frame_to(3))
            clean.transmit(frame_to(3))
        scheduler.run()
        # All of the clean station's frames arrive; almost none of the
        # lossy station's do.
        assert segment.frames_lost > 40
        assert len(got) >= 50

    def test_per_sender_streams_are_independent(self):
        """One direction's traffic volume must not perturb another's
        fault pattern: each sender draws from its own generator."""

        def lost_from_a(extra_b_frames):
            scheduler, segment = make_segment(seed=8)
            segment.set_chaos(ChaosConfig(loss_rate=0.5))
            a, _ = make_nic(segment, 1)
            b, _ = make_nic(segment, 2)
            _, got = make_nic(segment, 3, promiscuous=True)
            for n in range(30):
                a.transmit(frame_to(3, payload=b"from-a" + bytes([n])))
                for _ in range(extra_b_frames):
                    b.transmit(frame_to(3, payload=b"from-b"))
            scheduler.run()
            return [
                frame for _, frame in got if b"from-a" in frame
            ]

        assert lost_from_a(0) == lost_from_a(3)

    def test_set_chaos_none_clears(self):
        scheduler, segment = make_segment(seed=9)
        segment.set_chaos(ChaosConfig(loss_rate=0.99))
        segment.set_chaos(None)
        sender, _ = make_nic(segment, 1)
        _, got = make_nic(segment, 2)
        for _ in range(20):
            sender.transmit(frame_to(2))
        scheduler.run()
        assert len(got) == 20
