"""Tests for kernel-resident VMTP: transactions, groups, duplicates."""


from repro.kernelnet import KernelVMTP, SockIoctl
from repro.sim import (
    InvalidArgument,
    Ioctl,
    Open,
    Read,
    SimTimeout,
    World,
    Write,
)


def vmtp_world(**kwargs):
    world = World(**kwargs)
    a = world.host("client-host")
    b = world.host("server-host")
    KernelVMTP(a)
    KernelVMTP(b)
    return world, a, b


def echo_server(limit=None):
    def body():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.BIND, 35)
        count = 0
        while limit is None or count < limit:
            request = yield Read(fd)
            yield Write(fd, b"echo:" + request)
            count += 1

    return body()


class TestTransactions:
    def test_small_round_trip(self):
        world, a, b = vmtp_world()
        b.spawn("server", echo_server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"ping")
            return (yield Read(fd))

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == b"echo:ping"

    def test_multi_segment_both_directions(self):
        world, a, b = vmtp_world()
        b.spawn("server", echo_server())
        request = bytes(range(256)) * 30  # 7680 bytes: 8 segments

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, request)
            return (yield Read(fd))

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == b"echo:" + request

    def test_sequential_transactions(self):
        world, a, b = vmtp_world()
        b.spawn("server", echo_server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            replies = []
            for index in range(5):
                yield Write(fd, str(index).encode())
                replies.append((yield Read(fd)))
            return replies

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == [f"echo:{i}".encode() for i in range(5)]

    def test_two_clients_one_server(self):
        world, a, b = vmtp_world()
        c = world.host("second-client")
        KernelVMTP(c)
        b.spawn("server", echo_server())

        def client(host, tag):
            def body():
                fd = yield Open("vmtp")
                yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
                yield Write(fd, tag)
                return (yield Read(fd))

            return body()

        one = a.spawn("one", client(a, b"one"))
        two = c.spawn("two", client(c, b"two"))
        world.run_until_done(one, two)
        assert one.result == b"echo:one"
        assert two.result == b"echo:two"


class TestReliability:
    def test_lost_request_retransmitted(self):
        world, a, b = vmtp_world()
        world.segment.drop_filter = lambda frame, n: n == 1  # lose request
        b.spawn("server", echo_server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"retry me")
            return (yield Read(fd))

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == b"echo:retry me"

    def test_lost_response_segment_selectively_refetched(self):
        world, a, b = vmtp_world()
        # Response segments start at frame 2 (1 = request); lose one.
        world.segment.drop_filter = lambda frame, n: n == 3

        def server():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.BIND, 35)
            while True:
                yield Read(fd)
                yield Write(fd, bytes(5000))  # 5 segments

        b.spawn("server", server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"get")
            return (yield Read(fd))

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == bytes(5000)

    def test_duplicate_request_served_from_cache(self):
        """The server process must not see the retried transaction."""
        world, a, b = vmtp_world()
        # Lose the (only) response segment once so the client retries.
        world.segment.drop_filter = lambda frame, n: n == 2
        served = []

        def server():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.BIND, 35)
            while True:
                request = yield Read(fd)
                served.append(request)
                yield Write(fd, b"only once")

        b.spawn("server", server())

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"req")
            return (yield Read(fd))

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == b"only once"
        assert served == [b"req"]

    def test_unreachable_server_times_out(self):
        world, a, b = vmtp_world()
        world.segment.set_chaos(None)
        world.segment.drop_filter = lambda frame, n: True  # black hole

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            yield Write(fd, b"into the void")
            try:
                yield Read(fd)
            except SimTimeout:
                return "timed out"

        proc = a.spawn("client", client())
        world.run_until_done(proc)
        assert proc.result == "timed out"


class TestSocketSurface:
    def test_role_required_before_io(self):
        world, a, _ = vmtp_world()

        def body():
            fd = yield Open("vmtp")
            try:
                yield Write(fd, b"x")
            except InvalidArgument:
                return "role first"

        proc = a.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "role first"

    def test_server_write_needs_pending_request(self):
        world, a, _ = vmtp_world()

        def body():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.BIND, 35)
            try:
                yield Write(fd, b"unprompted")
            except InvalidArgument:
                return "no request"

        proc = a.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "no request"

    def test_server_id_collision(self):
        world, a, _ = vmtp_world()

        def body():
            fd1 = yield Open("vmtp")
            yield Ioctl(fd1, SockIoctl.BIND, 35)
            fd2 = yield Open("vmtp")
            try:
                yield Ioctl(fd2, SockIoctl.BIND, 35)
            except InvalidArgument:
                return "in use"

        proc = a.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "in use"
