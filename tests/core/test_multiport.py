"""Integration: processes using several ports, select, and scale.

Section 3's "more elaborate programs may take advantage of two more
sophisticated synchronization mechanisms" — exercised with processes
that own multiple ports at once, and a 48-port scale scenario.
"""


from repro.core.compiler import compile_expr, word
from repro.core.ioctl import PFIoctl
from repro.sim import Ioctl, Open, Read, Select, Sleep, World, Write


def type_filter(value, priority=10):
    return compile_expr(word(6) == value, priority=priority)


def make_world(hosts=2):
    world = World()
    out = [world.host(f"h{index}") for index in range(hosts)]
    for host in out:
        host.install_packet_filter()
    return world, out


class TestSelectAcrossPorts:
    def test_select_finds_the_ready_port(self):
        world, (alice, bob) = make_world()

        def receiver():
            control_fd = yield Open("pf")
            data_fd = yield Open("pf")
            yield Ioctl(control_fd, PFIoctl.SETFILTER, type_filter(0x0A01))
            yield Ioctl(data_fd, PFIoctl.SETFILTER, type_filter(0x0A02))
            ready = yield Select((control_fd, data_fd), 1.0)
            assert ready == [data_fd]
            [packet] = yield Read(data_fd)
            return bob.link.payload_of(packet.data)

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Write(fd, alice.link.frame(
                bob.address, alice.address, 0x0A02, b"data channel"
            ))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result == b"data channel"

    def test_select_reports_multiple_ready(self):
        world, (alice, bob) = make_world()

        def receiver():
            fds = []
            for value in (0x0B01, 0x0B02):
                fd = yield Open("pf")
                yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(value))
                fds.append(fd)
            yield Sleep(0.1)  # let both packets arrive
            ready = yield Select(tuple(fds), 1.0)
            return sorted(ready), sorted(fds)

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            for value in (0x0B01, 0x0B02):
                yield Write(fd, alice.link.frame(
                    bob.address, alice.address, value, b"x"
                ))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        ready, fds = rx.result
        assert ready == fds


class TestOneProcessManyPorts:
    def test_per_port_queues_are_independent(self):
        world, (alice, bob) = make_world()

        def receiver():
            fds = {}
            for value in (1, 2, 3):
                fd = yield Open("pf")
                yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(0x0C00 + value))
                fds[value] = fd
            yield Sleep(0.15)
            counts = {}
            for value, fd in fds.items():
                yield Ioctl(fd, PFIoctl.SETBATCH, True)
                try:
                    batch = yield Read(fd)
                except Exception:
                    batch = []
                counts[value] = len(batch)
            return counts

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            # 1 packet of type 1, 2 of type 2, 3 of type 3.
            for value in (1, 2, 2, 3, 3, 3):
                yield Write(fd, alice.link.frame(
                    bob.address, alice.address, 0x0C00 + value, b"y"
                ))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result == {1: 1, 2: 2, 3: 3}


class TestScale:
    def test_48_ports_exact_delivery(self):
        """'On a busy system several dozen filters may be applied to an
        incoming packet' — 48 ports, interleaved traffic, no crosstalk."""
        world, (alice, bob) = make_world()
        PORTS = 48
        results = {}

        def listener(index):
            def body():
                fd = yield Open("pf")
                program = compile_expr(
                    (word(6) == 0x0D00) & (word(7) == index), priority=10
                )
                yield Ioctl(fd, PFIoctl.SETFILTER, program)
                [packet] = yield Read(fd)
                results[index] = bob.link.payload_of(packet.data)
                return index

            return body()

        listeners = [
            bob.spawn(f"listener-{index}", listener(index))
            for index in range(PORTS)
        ]

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.3)  # binding 48 filters takes simulated time
            for index in range(PORTS):
                body = index.to_bytes(2, "big") + bytes(10)
                yield Write(fd, alice.link.frame(
                    bob.address, alice.address, 0x0D00, body
                ))

        alice.spawn("tx", sender())
        world.run_until_done(*listeners)
        assert len(results) == PORTS
        for index, payload in results.items():
            assert int.from_bytes(payload[:2], "big") == index
        # Demux accounting: the mean depth stays below the port count.
        demux = bob.packet_filter.demux
        assert demux.mean_predicates_tested < PORTS

    def test_port_exhaustion(self):
        from repro.core.device import PacketFilterDevice
        from repro.sim import DeviceBusy

        world = World()
        host = world.host("h")
        host.install_packet_filter()

        def body():
            for _ in range(PacketFilterDevice.MAX_PORTS):
                yield Open("pf")
            try:
                yield Open("pf")
            except DeviceBusy:
                return "exhausted"

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "exhausted"
