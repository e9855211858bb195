"""Tests for the section 5.4 network monitor."""


from repro.apps.monitor import NetworkMonitor, decode_frame
from repro.kernelnet import KernelUDP, SockIoctl, link_stacks
from repro.net.ethernet import ETHERNET_10MB
from repro.sim import Ioctl, Open, Sleep, World, Write


def monitored_world():
    world = World()
    alice = world.host("alice")
    bob = world.host("bob")
    watcher = world.host("watcher", promiscuous=True)
    alice.install_packet_filter()
    bob.install_packet_filter()
    watcher.install_packet_filter()
    watcher.kernel.pf_sees_all = True
    return world, alice, bob, watcher


class TestCapture:
    def test_sees_third_party_traffic(self):
        world, alice, bob, watcher = monitored_world()
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        proc = watcher.spawn("monitor", monitor.run())

        def chat():
            fd = yield Open("pf")
            for index in range(3):
                frame = alice.link.frame(
                    bob.address, alice.address, 0x0900, bytes([index]) * 20
                )
                yield Write(fd, frame)
                yield Sleep(0.01)

        alice.spawn("chat", chat())
        world.run_until_done(proc)
        assert len(monitor.trace) == 3
        assert monitor.summary.packets == 3

    def test_timestamps_recorded(self):
        world, alice, bob, watcher = monitored_world()
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        proc = watcher.spawn("monitor", monitor.run())

        def chat():
            fd = yield Open("pf")
            yield Sleep(0.02)  # let the monitor finish its ioctls
            frame = alice.link.frame(
                bob.address, alice.address, 0x0900, b"stamped"
            )
            yield Write(fd, frame)

        alice.spawn("chat", chat())
        world.run_until_done(proc)
        [record] = monitor.trace
        assert record.timestamp is not None

    def test_monitoring_does_not_disturb_the_monitored(self):
        """Copy-all means the watched conversation still completes."""
        from repro.core.compiler import compile_expr, word
        from repro.core.ioctl import PFIoctl
        from repro.sim import Read

        world, alice, bob, watcher = monitored_world()
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        mon_proc = watcher.spawn("monitor", monitor.run())

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(
                fd, PFIoctl.SETFILTER, compile_expr(word(6) == 0x0900)
            )
            [packet] = yield Read(fd)
            return packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Write(fd, alice.link.frame(
                bob.address, alice.address, 0x0900, b"watched"
            ))

        alice.spawn("tx", sender())
        world.run_until_done(rx, mon_proc)
        assert bob.link.payload_of(rx.result) == b"watched"
        assert monitor.summary.packets >= 1

    def test_kernel_protocol_traffic_visible_with_pf_sees_all(self):
        """The monitor sees UDP packets claimed by the kernel stack."""
        world = World()
        a = world.host("a")
        b = world.host("b")
        watcher = world.host("watcher", promiscuous=True)
        stack_a = a.install_kernel_stack()
        stack_b = b.install_kernel_stack()
        link_stacks(stack_a, stack_b)
        KernelUDP(stack_a)
        KernelUDP(stack_b)
        watcher.install_packet_filter()
        watcher.kernel.pf_sees_all = True
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        mon_proc = watcher.spawn("monitor", monitor.run())

        def udp_sender():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 53))
            yield Write(fd, b"to be observed")

        a.spawn("udp", udp_sender())
        world.run_until_done(mon_proc)
        assert monitor.summary.by_protocol.get("udp", 0) >= 1


class TestCosts:
    def test_format_costs_without_ledger_says_so(self):
        world, alice, bob, watcher = monitored_world()
        monitor = NetworkMonitor(watcher)
        assert "not enabled" in monitor.format_costs()

    def test_format_costs_renders_ledger_breakdown(self):
        world = World(ledger=True)
        alice = world.host("alice")
        bob = world.host("bob")
        watcher = world.host("watcher", promiscuous=True)
        for host in (alice, bob, watcher):
            host.install_packet_filter()
        watcher.kernel.pf_sees_all = True
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        proc = watcher.spawn("monitor", monitor.run())

        def chat():
            fd = yield Open("pf")
            for index in range(3):
                yield Write(fd, alice.link.frame(
                    bob.address, alice.address, 0x0900, bytes([index]) * 20
                ))
                yield Sleep(0.01)

        alice.spawn("chat", chat())
        world.run_until_done(proc)
        text = monitor.format_costs()
        assert "kernel cost on watcher" in text
        assert "syscall" in text
        assert "events" in text


class TestLiveSummary:
    def frame_record(self, link, frame):
        """What the monitor's capture loop builds per delivered frame."""
        from repro.apps.monitor import TraceRecord

        protocol, info = decode_frame(link, frame)
        return TraceRecord(
            timestamp=0.0,
            length=len(frame),
            source=link.source_of(frame).hex(),
            destination=link.destination_of(frame).hex(),
            protocol=protocol,
            info=info,
            drops_before=0,
        )

    def test_summary_accounts_decoded_frames(self):
        from repro.apps.monitor import TrafficSummary
        from repro.protocols.ethertypes import ETHERTYPE_PUP_10MB
        from repro.protocols.pup import PupAddress, PupHeader

        link = ETHERNET_10MB
        pup = PupHeader(
            pup_type=16, identifier=0,
            dst=PupAddress(1, 2, 0x35), src=PupAddress(1, 1, 0x44),
        ).encode(b"")
        frames = [
            link.frame(b"\x02" * 6, b"\x01" * 6, ETHERTYPE_PUP_10MB, pup),
            link.frame(b"\x02" * 6, b"\x01" * 6, ETHERTYPE_PUP_10MB, pup),
            link.frame(b"\x03" * 6, b"\x02" * 6, 0x7777, b"??"),
        ]
        summary = TrafficSummary()
        for frame in frames:
            summary.account(self.frame_record(link, frame))
        assert summary.packets == 3
        assert summary.bytes == sum(len(f) for f in frames)
        assert summary.by_protocol["pup"] == 2
        assert summary.by_protocol["type-0x7777"] == 1
        talkers = summary.top_talkers()
        assert talkers[0] == (("01" * 6), 2)


class TestDecoding:
    def test_decodes_udp(self):
        from repro.protocols.ip import IPHeader, PROTO_UDP
        from repro.protocols.udp import UDPHeader
        from repro.protocols.ethertypes import ETHERTYPE_IP

        datagram = IPHeader(src=1, dst=2, protocol=PROTO_UDP).encode(
            UDPHeader(src_port=1, dst_port=2).encode(b"q")
        )
        frame = ETHERNET_10MB.frame(
            b"\x01" * 6, b"\x02" * 6, ETHERTYPE_IP, datagram
        )
        protocol, info = decode_frame(ETHERNET_10MB, frame)
        assert protocol == "udp"
        assert "0.0.0.1" in info

    def test_decodes_pup(self):
        from repro.protocols.pup import PupAddress, PupHeader
        from repro.protocols.ethertypes import ETHERTYPE_PUP_10MB

        pup = PupHeader(
            pup_type=16, identifier=0,
            dst=PupAddress(1, 2, 0x35), src=PupAddress(1, 1, 0x44),
        ).encode(b"")
        frame = ETHERNET_10MB.frame(
            b"\x01" * 6, b"\x02" * 6, ETHERTYPE_PUP_10MB, pup
        )
        protocol, info = decode_frame(ETHERNET_10MB, frame)
        assert protocol == "pup"
        assert "type 16" in info

    def test_decodes_vmtp(self):
        from repro.protocols.ethertypes import ETHERTYPE_VMTP
        from repro.protocols.vmtp import VMTPKind, VMTPPacket

        packet = VMTPPacket(
            kind=VMTPKind.REQUEST, client=7, server=35, transaction=2,
            seg_index=0, seg_count=1, total_length=0,
        ).encode()
        frame = ETHERNET_10MB.frame(
            b"\x01" * 6, b"\x02" * 6, ETHERTYPE_VMTP, packet
        )
        protocol, info = decode_frame(ETHERNET_10MB, frame)
        assert protocol == "vmtp"
        assert "client 7" in info

    def test_unknown_type(self):
        frame = ETHERNET_10MB.frame(b"\x01" * 6, b"\x02" * 6, 0x7777, b"??")
        protocol, info = decode_frame(ETHERNET_10MB, frame)
        assert protocol == "type-0x7777"

    def test_format_trace(self):
        world, alice, bob, watcher = monitored_world()
        monitor = NetworkMonitor(watcher, idle_timeout=0.2)
        proc = watcher.spawn("monitor", monitor.run())

        def chat():
            fd = yield Open("pf")
            yield Write(fd, alice.link.frame(
                bob.address, alice.address, 0x0900, b"hello"
            ))

        alice.spawn("chat", chat())
        world.run_until_done(proc)
        text = monitor.format_trace()
        assert "type-0x0900" in text
