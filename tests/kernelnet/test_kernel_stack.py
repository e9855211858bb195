"""Tests for the kernel-resident stack: IP dispatch, UDP, sockets."""

import pytest

from repro.kernelnet import (
    KernelUDP,
    SockIoctl,
    link_stacks,
)
from repro.protocols.ip import format_ip, ip_address
from repro.sim import (
    Close,
    InvalidArgument,
    Ioctl,
    Open,
    Read,
    Sleep,
    World,
    Write,
)


def udp_world():
    world = World()
    a = world.host("a")
    b = world.host("b")
    stack_a = a.install_kernel_stack()
    stack_b = b.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    KernelUDP(stack_a)
    KernelUDP(stack_b)
    return world, a, b, stack_a, stack_b


class TestStackBasics:
    def test_default_ip_derived_from_station(self):
        world = World()
        host = world.host("h")
        stack = host.install_kernel_stack()
        assert format_ip(stack.ip_address) == "10.0.0.1"

    def test_no_route_raises(self):
        from repro.protocols.ip import IPError

        world = World()
        host = world.host("h")
        stack = host.install_kernel_stack()
        with pytest.raises(IPError, match="no route"):
            stack.send(ip_address("10.9.9.9"), 17, b"")

    def test_duplicate_transport_registration(self):
        world = World()
        host = world.host("h")
        stack = host.install_kernel_stack()
        KernelUDP(stack)
        with pytest.raises(ValueError):
            KernelUDP(stack, device_name="udp2")


class TestKernelUDP:
    def test_datagram_roundtrip(self):
        world, a, b, stack_a, stack_b = udp_world()

        def server():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.BIND, 53)
            datagram = yield Read(fd)
            return datagram

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 53))
            yield Write(fd, b"question")

        srv = b.spawn("server", server())
        a.spawn("client", client())
        world.run_until_done(srv)
        assert srv.result == b"question"

    def test_message_boundaries_preserved(self):
        world, a, b, stack_a, stack_b = udp_world()

        def server():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.BIND, 53)
            first = yield Read(fd)
            second = yield Read(fd)
            return first, second

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 53))
            yield Write(fd, b"one")
            yield Write(fd, b"two")

        srv = b.spawn("server", server())
        a.spawn("client", client())
        world.run_until_done(srv)
        assert srv.result == (b"one", b"two")

    def test_unbound_port_drops(self):
        world, a, b, stack_a, stack_b = udp_world()

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 99))
            yield Write(fd, b"void")

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        world.run()

    def test_write_requires_connect(self):
        world, a, _, _, _ = udp_world()

        def client():
            fd = yield Open("udp")
            try:
                yield Write(fd, b"x")
            except InvalidArgument:
                return "einval"

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == "einval"

    def test_port_collision(self):
        world, a, _, _, _ = udp_world()

        def body():
            fd1 = yield Open("udp")
            yield Ioctl(fd1, SockIoctl.BIND, 7)
            fd2 = yield Open("udp")
            try:
                yield Ioctl(fd2, SockIoctl.BIND, 7)
            except InvalidArgument:
                return "in use"

        proc = a.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "in use"

    def test_port_released_on_close(self):
        world, a, _, _, _ = udp_world()

        def body():
            fd1 = yield Open("udp")
            yield Ioctl(fd1, SockIoctl.BIND, 7)
            yield Close(fd1)
            fd2 = yield Open("udp")
            yield Ioctl(fd2, SockIoctl.BIND, 7)
            return "rebound"

        proc = a.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "rebound"


class TestKernelResidency:
    def test_udp_packet_costs_no_context_switch_when_ready(self):
        """Kernel protocols process packets at interrupt level; the
        reader crosses once per datagram, not per protocol event."""
        world, a, b, stack_a, stack_b = udp_world()

        def server():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.BIND, 53)
            yield Sleep(0.2)  # let several datagrams accumulate
            baseline = b.stats.snapshot()
            for _ in range(5):
                yield Read(fd)
            return b.stats.delta(baseline)

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 53))
            for _ in range(5):
                yield Write(fd, b"dgram")

        srv = b.spawn("server", server())
        a.spawn("client", client())
        world.run_until_done(srv)
        delta = srv.result
        assert delta.syscalls == 5       # the reads themselves
        assert delta.context_switches == 0  # data was ready: no blocking
