"""Tests for the user-level VMTP implementation over the packet filter,
and for its parity with the kernel-resident one."""

import pytest

from repro.core import PFIoctl, ReadTimeoutPolicy
from repro.kernelnet import KernelVMTP, SockIoctl
from repro.protocols.ethertypes import ETHERTYPE_VMTP
from repro.protocols.vmtp import (
    ALL_SEGMENTS,
    VMTPClient,
    VMTPKind,
    VMTPPacket,
    VMTPServer,
    client_filter,
    server_filter,
)
from repro.sim import Ioctl, Open, Read, SimTimeout, World, Write


def vmtp_world(**kwargs):
    world = World(**kwargs)
    a = world.host("client-host")
    b = world.host("server-host")
    a.install_packet_filter()
    b.install_packet_filter()
    return world, a, b


def spawn_echo_server(world, host, server_id=35, **server_kwargs):
    def body():
        server = VMTPServer(host, server_id=server_id, **server_kwargs)
        yield from server.start()
        while True:
            request, reply = yield from server.receive()
            yield from reply(b"echo:" + request)

    return host.spawn("vmtp-server", body())


class TestTransactions:
    def test_round_trip(self):
        world, a, b = vmtp_world()
        spawn_echo_server(world, b)

        def client_body():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            return (yield from client.call(b"hello"))

        proc = a.spawn("client", client_body())
        world.run_until_done(proc)
        assert proc.result == b"echo:hello"

    def test_multi_segment(self):
        world, a, b = vmtp_world()
        spawn_echo_server(world, b)
        big = bytes(range(256)) * 40  # 10240 bytes

        def client_body():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            return (yield from client.call(big))

        proc = a.spawn("client", client_body())
        world.run_until_done(proc)
        assert proc.result == b"echo:" + big

    def test_retry_on_lost_request(self):
        world, a, b = vmtp_world()
        world.segment.drop_filter = lambda frame, n: n == 1
        spawn_echo_server(world, b)

        def client_body():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            response = yield from client.call(b"retry")
            return response, client.retries

        proc = a.spawn("client", client_body())
        world.run_until_done(proc)
        response, retries = proc.result
        assert response == b"echo:retry"
        assert retries >= 1

    def test_duplicate_suppression_at_server(self):
        world, a, b = vmtp_world()
        world.segment.drop_filter = lambda frame, n: n == 2  # lose response
        served = []

        def server_body():
            server = VMTPServer(b, server_id=35)
            yield from server.start()
            while True:
                request, reply = yield from server.receive()
                served.append(request)
                yield from reply(b"once")

        b.spawn("server", server_body())

        def client_body():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            return (yield from client.call(b"req"))

        proc = a.spawn("client", client_body())
        world.run_until_done(proc)
        assert proc.result == b"once"
        assert served == [b"req"]

    def test_black_hole_times_out(self):
        world, a, b = vmtp_world()
        world.segment.drop_filter = lambda frame, n: True

        def client_body():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            try:
                yield from client.call(b"void")
            except SimTimeout:
                return "gave up"

        proc = a.spawn("client", client_body())
        world.run_until_done(proc)
        assert proc.result == "gave up"

    def test_wire_compatible_with_kernel_implementation(self):
        """The paper's two implementations interoperate: a user-level
        client against the kernel-resident server."""
        from repro.kernelnet import KernelVMTP, SockIoctl
        from repro.sim import Ioctl, Open, Read, Write

        world = World()
        a = world.host("user-level-host")
        b = world.host("kernel-host")
        a.install_packet_filter()
        KernelVMTP(b)

        def kernel_server():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.BIND, 35)
            while True:
                request = yield Read(fd)
                yield Write(fd, b"kernel says:" + request)

        b.spawn("server", kernel_server())

        def user_client():
            client = VMTPClient(
                a, client_id=7, server_station=b.address, server_id=35
            )
            yield from client.start()
            return (yield from client.call(b"hi"))

        proc = a.spawn("client", user_client())
        world.run_until_done(proc)
        assert proc.result == b"kernel says:hi"


class TestFilters:
    def test_client_filter_selects_responses_for_client(self):
        from repro.core.interpreter import evaluate
        from repro.net.ethernet import ETHERNET_10MB
        from repro.protocols.ethertypes import ETHERTYPE_VMTP
        from repro.protocols.vmtp import VMTPKind, VMTPPacket

        program = client_filter(7)

        def frame(kind, client):
            packet = VMTPPacket(
                kind=kind, client=client, server=35, transaction=1,
                seg_index=0, seg_count=1, total_length=0,
            )
            return ETHERNET_10MB.frame(
                b"\x01" * 6, b"\x02" * 6, ETHERTYPE_VMTP, packet.encode()
            )

        assert evaluate(program, frame(VMTPKind.RESPONSE, 7)).accepted
        assert not evaluate(program, frame(VMTPKind.RESPONSE, 8)).accepted
        assert not evaluate(program, frame(VMTPKind.REQUEST, 7)).accepted

    def test_server_filter_selects_by_server_id(self):
        from repro.core.interpreter import evaluate
        from repro.net.ethernet import ETHERNET_10MB
        from repro.protocols.ethertypes import ETHERTYPE_VMTP
        from repro.protocols.vmtp import VMTPKind, VMTPPacket

        program = server_filter(35)

        def frame(server):
            packet = VMTPPacket(
                kind=VMTPKind.REQUEST, client=1, server=server, transaction=1,
                seg_index=0, seg_count=1, total_length=0,
            )
            return ETHERNET_10MB.frame(
                b"\x01" * 6, b"\x02" * 6, ETHERTYPE_VMTP, packet.encode()
            )

        assert evaluate(program, frame(35)).accepted
        assert not evaluate(program, frame(36)).accepted

    def test_filters_are_disjoint_for_distinct_endpoints(self):
        """Two VMTP processes on one host never steal each other's
        packets — the section 3.2 discipline."""
        world, a, b = vmtp_world()
        spawn_echo_server(world, b, server_id=35)
        spawn_echo_server(world, b, server_id=36)

        def client_body(client_id, server_id, message):
            def body():
                client = VMTPClient(
                    a, client_id=client_id,
                    server_station=b.address, server_id=server_id,
                )
                yield from client.start()
                return (yield from client.call(message))

            return body()

        one = a.spawn("c1", client_body(1, 35, b"to 35"))
        two = a.spawn("c2", client_body(2, 36, b"to 36"))
        world.run_until_done(one, two)
        assert one.result == b"echo:to 35"
        assert two.result == b"echo:to 36"


# ---------------------------------------------------------------------------
# one transaction core, two placements
# ---------------------------------------------------------------------------


def sized_reply(request: bytes) -> bytes:
    """The test servers answer with as many zero bytes as the request's
    first two bytes ask for."""
    return bytes(int.from_bytes(request[:2], "big"))


def spawn_kernel_server(host):
    KernelVMTP(host)

    def body():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.BIND, 35)
        while True:
            request = yield Read(fd)
            yield Write(fd, sized_reply(request))

    host.spawn("kernel-server", body())


def spawn_user_server(host):
    host.install_packet_filter()

    def body():
        server = VMTPServer(host, server_id=35)
        yield from server.start()
        while True:
            request, reply = yield from server.receive()
            yield from reply(sized_reply(request))

    host.spawn("user-server", body())


SERVERS = {"kernel": spawn_kernel_server, "user-level": spawn_user_server}


class TestStaleAcknowledgement:
    @pytest.mark.parametrize("placement", sorted(SERVERS))
    def test_late_rspack_keeps_the_current_response(self, placement):
        """REQUEST 1, RSPACK 1, REQUEST 2, a late RSPACK 1, then REQUEST 2
        asking for segment 3 again: only an RSPACK of the cached
        transaction frees it, so the server re-sends (2, 3)."""
        world = World()
        client = world.host("raw-client")
        server = world.host("server")
        client.install_packet_filter()
        SERVERS[placement](server)
        five_segments = (5000).to_bytes(2, "big")

        def body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, client_filter(7))
            yield Ioctl(fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(0.5))

            def send(kind, transaction, mask=ALL_SEGMENTS):
                payload = five_segments if kind == VMTPKind.REQUEST else b""
                packet = VMTPPacket(
                    kind=kind, client=7, server=35, transaction=transaction,
                    seg_index=0, seg_count=1, total_length=len(payload),
                    segment_mask=mask, payload=payload,
                )
                yield Write(fd, client.link.frame(
                    server.address, client.address, ETHERTYPE_VMTP,
                    packet.encode(),
                ))

            def responses():
                got = []
                while True:
                    try:
                        batch = yield Read(fd)
                    except SimTimeout:
                        return got
                    for delivered in batch:
                        packet = VMTPPacket.decode(
                            client.link.payload_of(delivered.data)
                        )
                        got.append((packet.transaction, packet.seg_index))

            yield from send(VMTPKind.REQUEST, 1)
            first = yield from responses()
            yield from send(VMTPKind.RSPACK, 1)
            yield from send(VMTPKind.REQUEST, 2)
            second = yield from responses()
            yield from send(VMTPKind.RSPACK, 1)   # stale: transaction 1's
            yield from send(VMTPKind.REQUEST, 2, mask=1 << 3)
            return first, second, (yield from responses())

        proc = client.spawn("raw-client", body())
        world.run_until_done(proc)
        first, second, retry = proc.result
        assert first == [(1, index) for index in range(5)]
        assert second == [(2, index) for index in range(5)]
        assert retry == [(2, 3)]


def run_placement(placement, drop, transactions):
    """Run ``transactions`` (request bytes, response bytes) between two
    hosts of one placement; returns every VMTP packet put on the wire
    (lost ones included) and the responses the client read."""
    world = World()
    a = world.host("client-host")
    b = world.host("server-host")
    if drop is not None:
        world.segment.drop_filter = lambda frame, n: n == drop
    wire = []
    transmit = world.segment.transmit

    def record(sender, frame):
        packet = VMTPPacket.decode(a.link.payload_of(frame))
        wire.append((
            packet.kind, packet.transaction, packet.seg_index,
            packet.seg_count, packet.segment_mask, len(packet.payload),
        ))
        return transmit(sender, frame)

    world.segment.transmit = record
    requests = [
        response.to_bytes(2, "big") + bytes(request - 2)
        for request, response in transactions
    ]
    SERVERS[placement](b)
    if placement == "kernel":
        KernelVMTP(a)

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (b.address, 35))
            replies = []
            for request in requests:
                yield Write(fd, request)
                replies.append((yield Read(fd)))
            return replies

    else:
        a.install_packet_filter()

        def client():
            endpoint = VMTPClient(
                a, client_id=1, server_station=b.address, server_id=35
            )
            yield from endpoint.start()
            replies = []
            for request in requests:
                replies.append((yield from endpoint.call(request)))
            return replies

    proc = a.spawn("client", client())
    world.run_until_done(proc)
    assert proc.result == [bytes(size) for _, size in transactions]
    return wire


LOSS_PATTERNS = [
    pytest.param(None, [(3000, 5000), (2, 3000), (2, 0)], 17, id="clean"),
    pytest.param(1, [(2, 10)], 4, id="lose-request"),
    pytest.param(3, [(2, 5000)], 9, id="lose-response-segment"),
    pytest.param(2, [(2, 10)], 5, id="lose-only-response"),
    pytest.param(5, [(2, 3000), (2, 3000)], 10, id="lose-ack"),
]


class TestPlacementParity:
    """The paper chose VMTP because its two implementations "follow
    essentially the same pattern of packet transport": kernel-resident
    and user-level put the same packets on the wire, loss or no loss."""

    @pytest.mark.parametrize("drop, transactions, packets", LOSS_PATTERNS)
    def test_same_packets_either_placement(self, drop, transactions, packets):
        kernel = run_placement("kernel", drop, transactions)
        user = run_placement("user-level", drop, transactions)
        assert len(kernel) == packets
        assert user == kernel
