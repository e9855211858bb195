"""End-to-end on the 3 Mb/s Experimental Ethernet — the paper's own turf.

Figures 3-7 through 3-9 are written against the 3 Mb link (one-byte
stations, 4-byte header, Pup at word 2).  These tests run the actual
figure 3-9 filter, the Pup echo protocol, and a BSP transfer on that
link, so the paper's examples execute in their native habitat.
"""

import pytest

from repro.core.ioctl import PFIoctl
from repro.core.paper_filters import figure_3_9_pup_socket_35
from repro.net import ChaosConfig
from repro.net.ethernet import ETHERNET_3MB
from repro.protocols.bsp import BSPEndpoint, pup_ethertype
from repro.protocols.pup import PupAddress, PupHeader
from repro.protocols.pup_echo import pup_echo_server, pup_ping
from repro.sim import Ioctl, Open, Read, Sleep, World, Write


def make_world(hosts=2, **kwargs):
    world = World(link=ETHERNET_3MB, **kwargs)
    out = [world.host(f"h{index}") for index in range(hosts)]
    for host in out:
        host.install_packet_filter()
    return world, out


class TestFigure39OnItsNativeLink:
    def test_socket_35_delivery(self):
        """The verbatim figure 3-9 program demultiplexes real Pup
        packets on the 3 Mb Ethernet."""
        world, (alice, bob) = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, figure_3_9_pup_socket_35())
            [packet] = yield Read(fd)
            header, data = PupHeader.decode(bob.link.payload_of(packet.data))
            return header.dst.socket, data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            for socket in (36, 35, 99):  # only socket 35 must arrive
                header = PupHeader(
                    pup_type=1,
                    identifier=socket,
                    dst=PupAddress(net=1, host=bob.address[-1], socket=socket),
                    src=PupAddress(net=1, host=alice.address[-1], socket=7),
                )
                yield Write(fd, alice.link.frame(
                    bob.address, alice.address, pup_ethertype(alice.link),
                    header.encode(b"figure 3-9 says hi"),
                ))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        socket, data = rx.result
        assert socket == 35
        assert data == b"figure 3-9 says hi"

    def test_pup_header_lands_at_figure_3_7_offsets(self):
        """On the 3 Mb link the encoded Pup's fields sit at the word
        offsets figure 3-7 draws (type in word 3's low byte, DstSocket
        in words 7-8)."""
        from repro.core.words import get_word

        header = PupHeader(
            pup_type=16,
            identifier=0xAABBCCDD,
            dst=PupAddress(net=3, host=5, socket=35),
            src=PupAddress(net=3, host=9, socket=0x44),
        )
        frame = ETHERNET_3MB.frame(
            b"\x05", b"\x09", 2, header.encode(b"")
        )
        assert get_word(frame, 1) == 2            # EtherType
        assert get_word(frame, 3) & 0x00FF == 16  # HopCount | PupType
        assert get_word(frame, 6) == 0x0305       # DstNet | DstHost
        assert get_word(frame, 7) == 0            # DstSocket high
        assert get_word(frame, 8) == 35           # DstSocket low


class TestPupEcho:
    def test_ping(self):
        world, (alice, bob) = make_world()
        bob.spawn("echo-server", pup_echo_server(bob))

        def pinger():
            yield Sleep(0.02)
            return (yield from pup_ping(alice, bob.address, count=3))

        proc = alice.spawn("ping", pinger())
        world.run_until_done(proc)
        assert len(proc.result) == 3
        for rtt in proc.result:
            assert 0 < rtt < 0.05

    def test_ping_survives_loss(self):
        world, (alice, bob) = make_world(chaos=ChaosConfig(loss_rate=0.25), seed=6)
        bob.spawn("echo-server", pup_echo_server(bob))

        def pinger():
            yield Sleep(0.02)
            return (yield from pup_ping(alice, bob.address, count=2))

        proc = alice.spawn("ping", pinger())
        world.run_until_done(proc)
        assert len(proc.result) == 2

    def test_echo_works_on_10mb_too(self):
        world = World()
        alice = world.host("a")
        bob = world.host("b")
        alice.install_packet_filter()
        bob.install_packet_filter()
        bob.spawn("echo-server", pup_echo_server(bob))

        def pinger():
            yield Sleep(0.02)
            return (yield from pup_ping(alice, bob.address, count=1))

        proc = alice.spawn("ping", pinger())
        world.run_until_done(proc)
        assert len(proc.result) == 1


class TestBSPOn3Mb:
    def test_bulk_transfer(self):
        world, (alice, bob) = make_world()
        payload = bytes(i & 0xFF for i in range(8_000))

        def tx():
            endpoint = BSPEndpoint(alice, local_socket=0x44)
            yield from endpoint.start()
            yield from endpoint.send_stream(
                bob.address,
                PupAddress(net=1, host=bob.address[-1], socket=0x35),
                payload,
            )

        def rx():
            endpoint = BSPEndpoint(bob, local_socket=0x35)
            yield from endpoint.start()
            return (yield from endpoint.recv_all())

        rx_proc = bob.spawn("rx", rx())
        alice.spawn("tx", tx())
        world.run_until_done(rx_proc)
        assert rx_proc.result == payload

    def test_3mb_wire_is_the_bottleneck_for_big_frames(self):
        """568-byte frames take ~1.5 ms on the 3 Mb wire vs ~0.45 ms on
        the 10 Mb one — the serialization delay the link model carries."""
        from repro.net.ethernet import ETHERNET_10MB

        slow = ETHERNET_3MB.transmission_time(568)
        fast = ETHERNET_10MB.transmission_time(568)
        assert slow / fast == pytest.approx(10 / 2.94, rel=0.01)
