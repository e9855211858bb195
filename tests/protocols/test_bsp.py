"""Tests for the user-level BSP stream over the packet filter."""

import pytest

from repro.bench.scenarios import run_bsp_chaos
from repro.protocols.bsp import BSPEndpoint, bsp_socket_filter
from repro.protocols.pup import PupAddress
from repro.core.interpreter import evaluate
from repro.net import ChaosConfig
from repro.net.ethernet import ETHERNET_3MB, ETHERNET_10MB
from repro.sim import World


def transfer(payload, *, chaos=None, seed=1, data_per_packet=532):
    world = World(chaos=chaos, seed=seed)
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()

    def tx():
        endpoint = BSPEndpoint(
            sender, local_socket=0x44,
            data_per_packet=data_per_packet,
        )
        yield from endpoint.start()
        destination = PupAddress(net=1, host=receiver.address[-1], socket=0x35)
        yield from endpoint.send_stream(receiver.address, destination, payload)
        return endpoint.stats

    def rx():
        endpoint = BSPEndpoint(receiver, local_socket=0x35)
        yield from endpoint.start()
        data = yield from endpoint.recv_all()
        return data, endpoint.stats

    rx_proc = receiver.spawn("rx", rx())
    tx_proc = sender.spawn("tx", tx())
    world.run_until_done(rx_proc, tx_proc)
    data, rx_stats = rx_proc.result
    return data, tx_proc.result, rx_stats, world


PAYLOAD = bytes(i & 0xFF for i in range(30_000))


class TestStreamIntegrity:
    def test_clean_transfer(self):
        data, tx_stats, rx_stats, _ = transfer(PAYLOAD)
        assert data == PAYLOAD
        assert tx_stats.retransmissions == 0

    def test_empty_stream(self):
        data, *_ = transfer(b"")
        assert data == b""

    def test_single_byte(self):
        data, *_ = transfer(b"!")
        assert data == b"!"

    def test_lossy_link_recovers(self):
        data, tx_stats, _, world = transfer(
            PAYLOAD[:10_000], chaos=ChaosConfig(loss_rate=0.08), seed=13
        )
        assert data == PAYLOAD[:10_000]
        assert world.segment.frames_lost > 0
        assert tx_stats.retransmissions > 0

    def test_duplicating_link(self):
        data, _, rx_stats, _ = transfer(
            PAYLOAD[:8_000], chaos=ChaosConfig(duplicate_rate=0.3), seed=2
        )
        assert data == PAYLOAD[:8_000]
        assert rx_stats.duplicates_dropped > 0

    def test_small_packets(self):
        data, tx_stats, *_ = transfer(PAYLOAD[:2_000], data_per_packet=64)
        assert data == PAYLOAD[:2_000]
        assert tx_stats.data_packets_sent >= 2000 // 64

    def test_acks_flow(self):
        _, tx_stats, rx_stats, _ = transfer(PAYLOAD[:5_000])
        assert rx_stats.acks_sent > 0
        assert tx_stats.acks_received > 0

    def test_deterministic(self):
        def run():
            _, _, _, world = transfer(
                PAYLOAD[:4_000], chaos=ChaosConfig(loss_rate=0.05), seed=4
            )
            return world.now

        assert run() == run()


class TestLinger:
    def test_dally_outlasts_the_senders_retry_budget(self):
        """Seed 3 at the soak's 24 KiB: burst loss eats END
        retransmissions for longer than a few seconds, and a sink that
        dallied any shorter than the sender's whole retry budget left
        it retransmitting into a deaf port until it abandoned the
        stream."""
        result = run_bsp_chaos(seed=3, payload_bytes=24 * 1024)
        assert result["intact"]
        assert result["sender"].retransmissions > 0


class TestMaximumPacketSize:
    def test_568_byte_frames_on_the_wire(self):
        """§6.4: "Pup (hence BSP) allows a maximum packet size of 568
        bytes" — 14 Ethernet + 554 Pup."""
        world = World()
        sender = world.host("s")
        receiver = world.host("r")
        sender.install_packet_filter()
        receiver.install_packet_filter()
        sizes = []
        original = world.segment.transmit

        def spy(nic, frame):
            sizes.append(len(frame))
            return original(nic, frame)

        world.segment.transmit = spy

        def tx():
            endpoint = BSPEndpoint(sender, local_socket=0x44)
            yield from endpoint.start()
            yield from endpoint.send_stream(
                receiver.address,
                PupAddress(net=1, host=receiver.address[-1], socket=0x35),
                bytes(4000),
            )

        def rx():
            endpoint = BSPEndpoint(receiver, local_socket=0x35)
            yield from endpoint.start()
            return (yield from endpoint.recv_all())

        rx_proc = receiver.spawn("rx", rx())
        sender.spawn("tx", tx())
        world.run_until_done(rx_proc)
        assert max(sizes) == 568


class TestSocketFilter:
    def test_matches_only_own_socket(self):
        from repro.protocols.pup import PupHeader

        program = bsp_socket_filter(ETHERNET_10MB, 0x35)
        mine = PupHeader(
            pup_type=16, identifier=0,
            dst=PupAddress(net=1, host=2, socket=0x35),
            src=PupAddress(net=1, host=1, socket=0x44),
        )
        other = PupHeader(
            pup_type=16, identifier=0,
            dst=PupAddress(net=1, host=2, socket=0x36),
            src=PupAddress(net=1, host=1, socket=0x44),
        )
        def frame(header):
            return ETHERNET_10MB.frame(
                b"\x02" * 6, b"\x01" * 6, 0x0200, header.encode(b"")
            )

        assert evaluate(program, frame(mine)).accepted
        assert not evaluate(program, frame(other)).accepted

    def test_three_megabit_offsets_match_figure_3_9(self):
        """On the 3 Mb link the generated filter tests the same words
        figure 3-9 does (8, 7, then 1)."""
        program = bsp_socket_filter(ETHERNET_3MB, 35)
        indices = [
            ins.push_index for ins in program if ins.push_index is not None
        ]
        assert indices == [8, 7, 1]

    def test_data_per_packet_range(self):
        world = World()
        host = world.host("h")
        with pytest.raises(ValueError):
            BSPEndpoint(host, local_socket=1, data_per_packet=0)
        with pytest.raises(ValueError):
            BSPEndpoint(host, local_socket=1, data_per_packet=533)
