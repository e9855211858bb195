"""Edge cases in the kernel socket layer: overflow, pipelining, misuse."""

import math

import pytest

from repro.kernelnet import (
    KernelTCP,
    KernelUDP,
    KernelVMTP,
    SockIoctl,
    link_stacks,
)
from repro.kernelnet.sockets import BufferedSocketHandle
from repro.protocols.ip import ip_address
from repro.sim import (
    Compute,
    InvalidArgument,
    Ioctl,
    Open,
    Read,
    SimTimeout,
    Sleep,
    World,
    Write,
)
from repro.sim.display import TERMINAL_9600_CPS, DisplayDevice
from repro.sim.process import ProcessState


class TestUDPReceiveQueue:
    def test_overflow_drops_and_counts(self):
        """An unread datagram socket eventually drops (bounded queue)."""
        world = World()
        a = world.host("a")
        b = world.host("b")
        stack_a = a.install_kernel_stack()
        stack_b = b.install_kernel_stack()
        link_stacks(stack_a, stack_b)
        KernelUDP(stack_a)
        KernelUDP(stack_b)
        limit = BufferedSocketHandle.RECEIVE_QUEUE_LIMIT
        total = limit + 10
        handle_box = {}

        def lazy_server():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.BIND, 7)
            handle_box["handle"] = server_proc.fds[fd]
            yield Sleep(5.0)  # never reads in time

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 7))
            for _ in range(total):
                yield Write(fd, b"flood")

        server_proc = b.spawn("server", lazy_server())
        sender = a.spawn("client", client())
        world.run_until_done(sender)
        world.run(until=world.now + 0.5)
        handle = handle_box["handle"]
        assert handle.received_messages == limit
        assert handle.drops == total - limit


class TestVMTPPipelining:
    def test_second_write_supersedes_first(self):
        """A new transaction abandons the old one; its late response is
        ignored rather than delivered to the wrong read."""
        world = World()
        a = world.host("a")
        b = world.host("b")
        KernelVMTP(a)
        KernelVMTP(b)
        # Make the first response crawl: drop its only segment once so
        # it arrives via retry, after the second transaction started.
        state = {"dropped": False}

        def drop(frame, n):
            if n == 2 and not state["dropped"]:
                state["dropped"] = True
                return True
            return False

        world.segment.drop_filter = drop

        def server():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.BIND, 35)
            while True:
                request = yield Read(fd)
                yield Write(fd, b"reply to " + request)

        b.spawn("server", server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"first")
            # Abandon it immediately; start a new transaction.
            yield Write(fd, b"second")
            response = yield Read(fd)
            return response

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == b"reply to second"


class TestBufferedSocketContract:
    def test_stream_mixin_coalesces(self):
        from repro.kernelnet.sockets import StreamReadMixin

        class FakeStream(StreamReadMixin, BufferedSocketHandle):
            pass

        world = World()
        host = world.host("h")
        sock = FakeStream(host.kernel)
        sock._deposit(b"abc")
        sock._deposit(b"defg")
        assert sock._take(5) == b"abcde"
        assert sock._take(None) == b"fg"

    def test_datagram_take_is_one_message(self):
        world = World()
        host = world.host("h")
        sock = BufferedSocketHandle(host.kernel)
        sock._deposit(b"one")
        sock._deposit(b"two")
        assert sock._take(None) == b"one"
        assert sock._take(None) == b"two"

    def test_poll_readable(self):
        world = World()
        host = world.host("h")
        sock = BufferedSocketHandle(host.kernel)
        assert not sock.poll_readable()
        sock._deposit(b"x")
        assert sock.poll_readable()
        sock._take(None)
        sock._buffered_bytes = 0
        assert not sock.poll_readable()
        sock._mark_eof()
        assert sock.poll_readable()


# ---------------------------------------------------------------------------
# hostile Write.data / Read.size, checked once for every byte device
# ---------------------------------------------------------------------------


def _ip_pair(world, transport):
    a, b = world.host("a"), world.host("b")
    stack_a, stack_b = a.install_kernel_stack(), b.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    transport(stack_a)
    transport(stack_b)
    return a, b, stack_b.ip_address


def udp_socket(world):
    a, _, peer = _ip_pair(world, KernelUDP)

    def prelude():
        fd = yield Open("udp")
        yield Ioctl(fd, SockIoctl.CONNECT, (peer, 7))
        return fd

    return a, prelude


def tcp_socket(world):
    a, b, peer = _ip_pair(world, KernelTCP)

    def listener():
        fd = yield Open("tcp")
        yield Ioctl(fd, SockIoctl.BIND, 80)
        yield Read(fd)

    b.spawn("listener", listener())

    def prelude():
        fd = yield Open("tcp")
        yield Ioctl(fd, SockIoctl.CONNECT, (peer, 80))   # established
        return fd

    return a, prelude


def vmtp_client_socket(world):
    a, b = world.host("a"), world.host("b")
    KernelVMTP(a)
    KernelVMTP(b)

    def prelude():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
        return fd

    return a, prelude


def vmtp_server_socket(world):
    """A server holding one request, so its next write is a response."""
    a, b = world.host("a"), world.host("b")
    KernelVMTP(a)
    KernelVMTP(b)

    def asker():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.CONNECT, (a.address, 35))
        yield Write(fd, b"ask")
        try:
            yield Read(fd)
        except SimTimeout:
            pass

    b.spawn("asker", asker())

    def prelude():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.BIND, 35)
        yield Read(fd)
        return fd

    return a, prelude


def display(world):
    a = world.host("a")
    a.kernel.register_device("display", DisplayDevice(TERMINAL_9600_CPS))

    def prelude():
        return (yield Open("display"))

    return a, prelude


def fresh_socket(transport, path):
    """A just-opened socket on host a; host b (10.0.0.2) listens on
    TCP port 80 when the transport is TCP."""

    def build(world):
        if transport is KernelVMTP:
            a = world.host("a")
            KernelVMTP(a)
            KernelVMTP(world.host("b"))
        else:
            a, b, _ = _ip_pair(world, transport)
            if transport is KernelTCP:

                def listener():
                    fd = yield Open("tcp")
                    yield Ioctl(fd, SockIoctl.BIND, 80)
                    yield Read(fd)

                b.spawn("listener", listener())

        def prelude():
            return (yield Open(path))

        return a, prelude

    return build


SOCKETS = {
    "udp": udp_socket,
    "tcp": tcp_socket,
    "vmtp-client": vmtp_client_socket,
    "vmtp-server": vmtp_server_socket,
}
FRESH_SOCKETS = {
    "udp-fresh": fresh_socket(KernelUDP, "udp"),
    "tcp-fresh": fresh_socket(KernelTCP, "tcp"),
    "vmtp-fresh": fresh_socket(KernelVMTP, "vmtp"),
}
PEER_IP = ip_address("10.0.0.2")
UNROUTED_IP = ip_address("10.0.0.99")


def ioctl_then(command, *after):
    """The ioctl carrying the hostile argument, then the calls that
    used to trip over what it let through."""

    def make(fd, value):
        return [Ioctl(fd, command, value), *(call(fd) for call in after)]

    return make


def write(fd):
    return Write(fd, b"x")


def write_3000(fd):
    return Write(fd, bytes(3000))


def connect_80(fd):
    return Ioctl(fd, SockIoctl.CONNECT, (PEER_IP, 80))


CONNECT, SET_MSS, BIND = SockIoctl.CONNECT, SockIoctl.SET_MSS, SockIoctl.BIND
HOSTILE_IOCTLS = [  # device, command, label, argument, calls after it
    ("udp-fresh", CONNECT, "unrouted", (UNROUTED_IP, 7), [write]),
    ("udp-fresh", CONNECT, "'abc'", "abc", [write]),
    ("udp-fresh", CONNECT, "port 70000", (PEER_IP, 70000), [write]),
    ("udp-fresh", CONNECT, "port 0", (PEER_IP, 0), [write]),
    ("tcp-fresh", CONNECT, "unrouted", (UNROUTED_IP, 80), []),
    ("tcp-fresh", CONNECT, "None", None, []),
    ("tcp-fresh", SET_MSS, "'abc'", "abc", []),
    ("tcp-fresh", SET_MSS, "1500", 1500, [connect_80, write_3000]),
    ("vmtp-fresh", BIND, "'x'", "x", []),
    ("vmtp-fresh", CONNECT, "'junk'", "junk", []),
    ("vmtp-fresh", CONNECT, "server 'x'", (bytes(6), "x"), []),
    ("vmtp-fresh", CONNECT, "station 12345", (12345, 35), [write]),
]
BAD_DATA = {"'abc'": "abc", "-1": -1, "10**8": 10**8, "5": 5, "3.5": 3.5, "None": None}
BAD_SIZES = {"'x'": "x", "-1": -1, "1.5": 1.5}
HOSTILE_DEVICE_CALLS = (
    [
        pytest.param(device, Write, value, id=f"{device}-Write({label})")
        for device in [*SOCKETS, "display"]
        for label, value in BAD_DATA.items()
    ]
    + [
        pytest.param(device, Read, value, id=f"{device}-Read({label})")
        for device in SOCKETS
        for label, value in BAD_SIZES.items()
    ]
    + [
        pytest.param("udp", Write, bytes(1473), id="udp-Write(oversize)"),
        pytest.param(
            "vmtp-client", Write, bytes(16 * 1024 + 1), id="vmtp-client-Write(oversize)"
        ),
        pytest.param(
            "vmtp-server", Write, bytes(16 * 1024 + 1), id="vmtp-server-Write(oversize)"
        ),
    ]
    + [
        pytest.param(
            device,
            ioctl_then(command, *after),
            value,
            id=f"{device}-{command.name}({label})",
        )
        for device, command, label, value, after in HOSTILE_IOCTLS
    ]
)


class TestHostileDeviceArguments:
    """``Write.data``, ``Read.size`` and socket ioctl arguments reach a
    socket or the display straight from user code: a value of the wrong
    type or range is the calling process's error and nobody else's —
    never an exception out of the event loop, and never zero bytes sent
    for an integer."""

    @pytest.mark.parametrize("device, make, value", HOSTILE_DEVICE_CALLS)
    def test_only_the_offender_fails(self, device, make, value):
        world = World()
        host, prelude = {**SOCKETS, **FRESH_SOCKETS, "display": display}[
            device
        ](world)
        bystander = world.host("bystander")

        def offender():
            fd = yield from prelude()
            calls = make(fd, value)
            for call in calls if isinstance(calls, list) else [calls]:
                yield call

        def sibling():
            yield Sleep(0.01)
            yield Compute(0.001)
            return "fine"

        bad = host.spawn("bad", offender())
        good = bystander.spawn("good", sibling())
        world.run_until_done(good)
        world.run()
        assert bad.state is ProcessState.FAILED
        assert isinstance(bad.error, InvalidArgument)
        assert good.result == "fine"
        assert math.isfinite(world.now)

    def test_legal_payloads_still_work(self):
        world = World()
        a, b, peer = _ip_pair(world, KernelUDP)

        def server():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.BIND, 7)
            return [(yield Read(fd, 0)), (yield Read(fd))]

        def client():
            fd = yield Open("udp")
            yield Ioctl(fd, SockIoctl.CONNECT, (peer, 7))
            return [
                (yield Write(fd, bytearray(b"ok"))),
                (yield Write(fd, bytes(1472))),
            ]

        listening = b.spawn("server", server())
        sending = a.spawn("client", client())
        world.run_until_done(sending, listening)
        assert sending.result == [2, 1472]
        assert listening.result == [b"ok", bytes(1472)]
