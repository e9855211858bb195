"""Tests for the kernel TCP: handshake, streams, loss recovery."""


from repro.kernelnet import KernelTCP, SockIoctl, link_stacks
from repro.net import ChaosConfig
from repro.sim import Close, Ioctl, Open, Read, World, Write


def tcp_world(**world_kwargs):
    world = World(**world_kwargs)
    a = world.host("a")
    b = world.host("b")
    stack_a = a.install_kernel_stack()
    stack_b = b.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    tcp_a = KernelTCP(stack_a)
    tcp_b = KernelTCP(stack_b)
    return world, a, b, stack_a, stack_b, tcp_a, tcp_b


def stream_pair(world, a, b, stack_b, payload, *, mss=None, chunk=4096):
    def server():
        fd = yield Open("tcp")
        yield Ioctl(fd, SockIoctl.BIND, 9)
        received = bytearray()
        while True:
            data = yield Read(fd)
            if not data:
                return bytes(received)
            received.extend(data)

    def client():
        fd = yield Open("tcp")
        if mss is not None:
            yield Ioctl(fd, SockIoctl.SET_MSS, mss)
        yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
        for offset in range(0, len(payload), chunk):
            yield Write(fd, payload[offset : offset + chunk])
        yield Close(fd)
        return "sent"

    sink = b.spawn("sink", server())
    source = a.spawn("source", client())
    world.run_until_done(sink, source)
    return sink.result


PAYLOAD = bytes(i & 0xFF for i in range(40_000))


class TestStreamIntegrity:
    def test_clean_link(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        assert stream_pair(world, a, b, stack_b, PAYLOAD) == PAYLOAD

    def test_small_mss(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        received = stream_pair(world, a, b, stack_b, PAYLOAD[:8000], mss=514)
        assert received == PAYLOAD[:8000]

    def test_lossy_link(self):
        world, a, b, _, stack_b, tcp_a, _ = tcp_world(
            chaos=ChaosConfig(loss_rate=0.08), seed=3
        )
        received = stream_pair(world, a, b, stack_b, PAYLOAD[:20_000])
        assert received == PAYLOAD[:20_000]

    def test_duplicating_link(self):
        world, a, b, _, stack_b, *_ = tcp_world(
            chaos=ChaosConfig(duplicate_rate=0.2), seed=5
        )
        received = stream_pair(world, a, b, stack_b, PAYLOAD[:10_000])
        assert received == PAYLOAD[:10_000]

    def test_retransmissions_happen_under_loss(self):
        world, a, b, _, stack_b, tcp_a, tcp_b = tcp_world(
            chaos=ChaosConfig(loss_rate=0.1), seed=11
        )
        stream_pair(world, a, b, stack_b, PAYLOAD[:10_000])
        # Ports may be released after teardown, so check the segment's
        # loss counter: the stream only completes if the endpoints
        # retransmitted through those losses.
        assert world.segment.frames_lost > 0

    def test_empty_stream(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        assert stream_pair(world, a, b, stack_b, b"") == b""

    def test_deterministic(self):
        def run():
            world, a, b, _, stack_b, *_ = tcp_world(
                chaos=ChaosConfig(loss_rate=0.05), seed=9
            )
            stream_pair(world, a, b, stack_b, PAYLOAD[:5000])
            return world.now

        assert run() == run()


class TestSegmentSizes:
    def test_default_mss_yields_1078_byte_packets(self):
        """§6.4: "TCP in 4.3BSD uses 1078-byte packets"."""
        world, a, b, _, stack_b, *_ = tcp_world()
        sizes = []
        original = world.segment.transmit

        def spy(sender, frame):
            sizes.append(len(frame))
            return original(sender, frame)

        world.segment.transmit = spy
        stream_pair(world, a, b, stack_b, PAYLOAD[:8192])
        assert max(sizes) == 1078

    def test_small_mss_yields_568_byte_packets(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        sizes = []
        original = world.segment.transmit

        def spy(sender, frame):
            sizes.append(len(frame))
            return original(sender, frame)

        world.segment.transmit = spy
        stream_pair(world, a, b, stack_b, PAYLOAD[:4112], mss=514)
        assert max(sizes) == 568


class TestFlowControl:
    def test_slow_reader_stalls_sender_without_loss(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        from repro.sim import Sleep

        def server():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.BIND, 9)
            received = bytearray()
            while True:
                yield Sleep(0.05)  # lazy reader
                data = yield Read(fd)
                if not data:
                    return bytes(received)
                received.extend(data)

        data = PAYLOAD[:20_000]

        def client():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
            for offset in range(0, len(data), 4096):
                yield Write(fd, data[offset : offset + 4096])
            yield Close(fd)

        sink = b.spawn("sink", server())
        a.spawn("source", client())
        world.run_until_done(sink)
        assert sink.result == data


class TestHandshake:
    def test_connect_completes_only_after_synack(self):
        world, a, b, _, stack_b, *_ = tcp_world()

        def server():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.BIND, 9)
            yield Read(fd)

        def client():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
            handshake_done = world.now
            yield Write(fd, b"x")
            yield Close(fd)
            return handshake_done

        b.spawn("server", server())
        source = a.spawn("client", client())
        world.run_until_done(source)
        assert source.result > 0  # had to wait for a round trip

    def test_syn_retransmitted_through_loss(self):
        world, a, b, _, stack_b, *_ = tcp_world()
        # Kill the first SYN specifically.
        world.segment.drop_filter = lambda frame, n: n == 1

        def server():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.BIND, 9)
            return (yield Read(fd))

        def client():
            fd = yield Open("tcp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
            yield Write(fd, b"eventually")
            yield Close(fd)

        sink = b.spawn("server", server())
        a.spawn("client", client())
        world.run_until_done(sink)
        assert sink.result == b"eventually"
