"""Workload scenarios behind every table and figure reproduction.

Each ``measure_*``/``count_*``/``run_*`` function builds a fresh
deterministic :class:`repro.sim.World`, runs one of the paper's
measurement configurations, and returns the number(s) the corresponding
table reports.  The benchmark files under ``benchmarks/`` are thin:
they call these, print paper-vs-measured, and assert the shape.  Tests
reuse them too, so a regression in a scenario breaks loudly in both
places.

No world is written twice.  A world more than one caller needs is
*populated* by one function that is handed the world (``populate_*``
and the ``_*_hosts``/``_*_stream`` helpers): the table benchmark makes
its own ``World`` and runs it until the measured process is done, the
segment builders in :mod:`repro.bench.topologies` pass ``ctx.world`` and
``ctx.host`` and let ``run_topology`` drive it.  Shared process bodies
are module-level generator functions that get *spawned* — never
``yield from``-delegated to, which would add a frame to every resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from ..core.compiler import compile_expr, word
from ..core.ioctl import PFIoctl
from ..core.program import FilterProgram, asm
from ..kernelnet import (
    KernelTCP,
    KernelUDP,
    KernelVMTP,
    SockIoctl,
    link_stacks,
)
from ..baselines.user_demux import UserDemuxSystem
from ..net.medium import ChaosConfig
from ..protocols.bsp import BSPEndpoint
from ..protocols.pup import PupAddress
from ..protocols.vmtp import VMTPClient, VMTPServer
from ..sim import Close, Ioctl, Open, Read, Sleep, World, Write
from ..sim.display import DisplayDevice

__all__ = [
    "TEST_ETHERTYPE",
    "read_forever",
    "blast",
    "measure_demux_throughput",
    "measure_send_cost",
    "measure_vmtp_minimal",
    "measure_vmtp_bulk",
    "measure_tcp_bulk",
    "measure_bsp_bulk",
    "measure_telnet",
    "populate_paced_receive",
    "measure_receive_cost",
    "measure_filter_cost",
    "kernel_profile",
    "CHAOS_SEEDS",
    "ACCEPTANCE_CHAOS",
    "SOAK_RETRIES",
    "CHAOS_SOAKS",
    "run_bsp_chaos",
    "run_vmtp_chaos",
    "run_rarp_chaos",
    "run_pup_echo_chaos",
    "measure_spurious_retransmissions",
    "receive_saturation_pps",
    "populate_overload_storm",
    "run_overload_storm",
    "run_flow_storm",
    "run_partition_storm",
]

TEST_ETHERTYPE = 0x0900
"""Data-link type used by synthetic benchmark traffic."""


def _test_filter() -> FilterProgram:
    """Accept the synthetic benchmark traffic (one-field test)."""
    return compile_expr(word(6) == TEST_ETHERTYPE, priority=10)


def _payload(host, size: int, dst: bytes) -> bytes:
    """A test frame of exactly ``size`` bytes including the header."""
    body = bytes(max(0, size - host.link.header_length))
    return host.link.frame(dst, host.address, TEST_ETHERTYPE, body)


def read_forever(queue_limit: int | None = None, tally: dict | None = None):
    """Process body: bind the test filter and read until the world ends.

    ``queue_limit`` switches on batched reads over a queue that long;
    ``tally["frames"]`` (when given) counts completed reads.
    """
    fd = yield Open("pf")
    yield Ioctl(fd, PFIoctl.SETFILTER, _test_filter())
    if queue_limit is not None:
        yield Ioctl(fd, PFIoctl.SETBATCH, True)
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, queue_limit)
    while True:
        yield Read(fd)
        if tally is not None:
            tally["frames"] += 1


def blast(world, frame: bytes, pace: float, *, head_start, until, rng=None):
    """Process body: write ``frame`` every ``pace`` seconds (jittered
    +-25 % from ``rng``, when given) until simulated time ``until``,
    after a ``head_start`` that lets the reader bind its filter."""
    fd = yield Open("pf")
    yield Sleep(head_start)
    while world.now < until:
        yield Write(fd, frame)
        yield Sleep(
            pace if rng is None else pace * (0.75 + 0.5 * rng.random())
        )


# ---------------------------------------------------------------------------
# Demultiplexer hot-path throughput (wall clock, not simulated time)
# ---------------------------------------------------------------------------


def measure_demux_throughput(
    engine="checked",
    *,
    filters: int = 32,
    flow_cache: bool | int = False,
    min_seconds: float = 0.2,
    programs: "list[FilterProgram] | None" = None,
    packets: "list[bytes] | None" = None,
) -> float:
    """Wall-clock packets/second through the demultiplexer hot path.

    Unlike every other scenario here, this measures *our* CPU, not the
    simulated VAX's: it is the engine-comparison microbenchmark behind
    docs/PERFORMANCE.md.  ``filters`` ports bind the kernel-profile
    filter shape ``(word 6 == ethertype) & (word 7 == index)``; traffic
    round-robins over the indices so the linear engines test half the
    set per packet on average while the IR dispatch and the flow
    cache resolve each packet in O(1).  ``programs``/``packets``
    override the synthetic workload with a caller-supplied one (the
    ruleset-scale benchmark's ACL sets).
    """
    import time

    from ..core.demux import Engine, PacketFilterDemux
    from ..core.port import Port
    from ..core.words import pack_words

    demux = PacketFilterDemux(
        engine=engine if isinstance(engine, Engine) else Engine(engine),
        flow_cache=flow_cache,
        reorder_same_priority=False,
    )
    if programs is None:
        programs = [
            compile_expr(
                (word(6) == TEST_ETHERTYPE) & (word(7) == index),
                priority=10,
            )
            for index in range(filters)
        ]
    for index, program in enumerate(programs):
        # queue_limit=1 keeps delivery on the normal accept path while
        # bounding memory over millions of deliveries (overflow after
        # the first packet is counted, not stored).
        port = Port(index, queue_limit=1)
        port.bind_filter(program)
        demux.attach(port)
    if packets is None:
        packets = [
            pack_words([0, 0, 0, 0, 0, 0, TEST_ETHERTYPE, n % filters])
            for n in range(256)
        ]

    deliver = demux.deliver
    for packet in packets:  # warm-up: fills the flow cache, if any
        deliver(packet)
    delivered = 0
    start = time.perf_counter()
    while True:
        for packet in packets:
            deliver(packet)
        delivered += len(packets)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return delivered / elapsed


# ---------------------------------------------------------------------------
# Table 6-1: cost of sending packets
# ---------------------------------------------------------------------------


def measure_send_cost(via: str, packet_bytes: int, count: int = 50) -> float:
    """Sender-host milliseconds per packet sent, PF vs (unchecksummed) UDP.

    The paper measured wall time around a send loop; we aggregate the
    charge ledger over the same loop — every attributed cost event on
    the sending host between the post-warm-up mark and the last write —
    which, for a CPU-bound send loop, is the same quantity with an
    audit trail attached.
    """
    world = World(ledger=True)
    sender = world.host("sender")
    sink = world.host("sink")
    marks: list[int] = []

    if via == "pf":
        sender.install_packet_filter()
        sink.install_packet_filter()  # nothing bound; frames go unclaimed
        connect = None
        data = _payload(sender, packet_bytes, sink.address)
    elif via == "udp":
        stack_a = sender.install_kernel_stack()
        stack_b = sink.install_kernel_stack()
        link_stacks(stack_a, stack_b)
        KernelUDP(stack_a)
        KernelUDP(stack_b)
        connect = (stack_b.ip_address, 9)
        # IP(20) + UDP(8) headers ride inside the frame size budget.
        data = bytes(max(0, packet_bytes - sender.link.header_length - 28))
    else:
        raise ValueError(f"unknown send path {via!r}")

    def body():
        fd = yield Open(via)
        if connect is not None:
            yield Ioctl(fd, SockIoctl.CONNECT, connect)
        yield Write(fd, data)       # warm-up
        marks.append(world.ledger.mark())
        for _ in range(count):
            yield Write(fd, data)

    proc = sender.spawn("sender", body())
    world.run_until_done(proc)
    spent = world.ledger.total_cost(host="sender", start=marks[0])
    return spent / count * 1000.0


# ---------------------------------------------------------------------------
# Tables 6-2/6-3/6-4/6-5: VMTP
# ---------------------------------------------------------------------------


def _vmtp_server(host, reply_with: bytes, *, service_time=0.0, batching=True):
    """Process body: answer every VMTP request with ``reply_with``,
    ``service_time`` seconds (think: a disk seek) after it arrives."""
    endpoint = VMTPServer(host, server_id=35, batching=batching)
    yield from endpoint.start()
    while True:
        request, reply = yield from endpoint.receive()
        if service_time:
            yield Sleep(service_time)
        yield from reply(reply_with)


def _vmtp_hosts(world, reply_with: bytes, host=None, **server_options):
    """A client host and a server host on the packet filter, the
    server answering every request with ``reply_with``."""
    host = host or world.host
    client_host = host("client")
    server_host = host("server")
    client_host.install_packet_filter()
    server_host.install_packet_filter()
    server_host.spawn(
        "vmtp-server", _vmtp_server(server_host, reply_with, **server_options)
    )
    return client_host, server_host


def _vmtp_client(client_host, server_host, **options) -> VMTPClient:
    return VMTPClient(
        client_host, client_id=7,
        server_station=server_host.address, server_id=35, **options,
    )


def _kernel_vmtp_hosts(world, reply_with: bytes):
    """The same pair on the kernel-resident VMTP implementation."""
    client_host = world.host("client")
    server_host = world.host("server")
    KernelVMTP(client_host)
    KernelVMTP(server_host)

    def server():
        fd = yield Open("vmtp")
        yield Ioctl(fd, SockIoctl.BIND, 35)
        while True:
            yield Read(fd)
            yield Write(fd, reply_with)

    server_host.spawn("vmtp-server", server())
    return client_host, server_host


def measure_vmtp_minimal(implementation: str, operations: int = 25) -> float:
    """Elapsed ms per minimal (zero-byte read) VMTP transaction."""
    if implementation == "pf-userdemux":
        return _vmtp_user_demux("minimal", operations)
    world = World()
    if implementation == "kernel":
        client_host, server_host = _kernel_vmtp_hosts(world, b"")

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (server_host.address, 35))
            yield Write(fd, b"")
            yield Read(fd)  # warm-up transaction
            start = world.now
            for _ in range(operations):
                yield Write(fd, b"")
                yield Read(fd)
            return (world.now - start) / operations

    elif implementation == "pf":
        client_host, server_host = _vmtp_hosts(world, b"")

        def client():
            endpoint = _vmtp_client(client_host, server_host)
            yield from endpoint.start()
            yield from endpoint.call(b"")  # warm-up
            start = world.now
            for _ in range(operations):
                yield from endpoint.call(b"")
            return (world.now - start) / operations

    else:
        raise ValueError(f"unknown VMTP implementation {implementation!r}")

    proc = client_host.spawn("vmtp-client", client())
    world.run_until_done(proc)
    return proc.result * 1000.0


def _vmtp_user_demux(mode: str, amount: int):
    """Table 6-5: the client receives through a demultiplexing process.

    "This is done by using an extra process to receive packets, which
    are then passed to the actual VMTP process via a Unix pipe.  (In
    this case, the server process was not modified.)"  ``amount`` is the
    number of transactions (``mode="minimal"``) or of bytes to read
    (``mode="bulk"``).
    """
    from ..protocols.ethertypes import ETHERTYPE_VMTP

    world = World()
    client_host, server_host = _vmtp_hosts(
        world, bytes(VMTP_BULK_SEGMENT) if mode == "bulk" else b""
    )

    def classify(frame: bytes):
        if client_host.link.ethertype_of(frame) == ETHERTYPE_VMTP:
            return "vmtp"
        return None

    system = UserDemuxSystem(client_host, classify=classify, batching=True)
    inbox = system.add_destination("vmtp")

    def client():
        endpoint = _vmtp_client(client_host, server_host, inbox=inbox)
        yield from endpoint.start()
        yield from endpoint.call(b"warm")
        start = world.now
        if mode == "minimal":
            for _ in range(amount):
                yield from endpoint.call(b"")
            return (world.now - start) / amount
        received = 0
        while received < amount:
            received += len((yield from endpoint.call(b"read")))
        return (world.now - start, received)

    client_proc = client_host.spawn("vmtp-client", client())
    system.register(inbox, client_proc)
    demux_proc = client_host.spawn("demuxd", system.run())
    system.attach(demux_proc)
    world.run_until_done(client_proc)

    if mode == "minimal":
        return client_proc.result * 1000.0
    duration, received = client_proc.result
    return (received / 1024.0) / duration


VMTP_BULK_SEGMENT = 16 * 1024
"""The cached file segment every bulk read returns: one full segment
group."""


def measure_vmtp_bulk(
    implementation: str,
    *,
    batching: bool = True,
    total_bytes: int = 384 * 1024,
) -> float:
    """Bulk-transfer KBytes/sec: repeatedly read a cached file segment."""
    if implementation == "pf-userdemux":
        return _vmtp_user_demux("bulk", total_bytes)
    world = World()
    if implementation == "kernel":
        client_host, server_host = _kernel_vmtp_hosts(
            world, bytes(VMTP_BULK_SEGMENT)
        )

        def client():
            fd = yield Open("vmtp")
            yield Ioctl(fd, SockIoctl.CONNECT, (server_host.address, 35))
            yield Write(fd, b"read")
            yield Read(fd)  # warm-up
            start = world.now
            received = 0
            while received < total_bytes:
                yield Write(fd, b"read")
                received += len((yield Read(fd)))
            return (world.now - start, received)

    elif implementation == "pf":
        client_host, server_host = _vmtp_hosts(
            world, bytes(VMTP_BULK_SEGMENT), batching=batching
        )

        def client():
            endpoint = _vmtp_client(
                client_host, server_host, batching=batching
            )
            yield from endpoint.start()
            yield from endpoint.call(b"read")  # warm-up
            start = world.now
            received = 0
            while received < total_bytes:
                received += len((yield from endpoint.call(b"read")))
            return (world.now - start, received)

    else:
        raise ValueError(f"unknown VMTP implementation {implementation!r}")

    proc = client_host.spawn("vmtp-client", client())
    world.run_until_done(proc)
    duration, received = proc.result
    return (received / 1024.0) / duration


# ---------------------------------------------------------------------------
# Table 6-6: byte streams (BSP vs kernel TCP); also feeds table 6-3's TCP row
# and figure 2-3's domain-crossing counts
# ---------------------------------------------------------------------------


def _tcp_stream(world, total_bytes: int, *, mss=None, disk_ms_per_kbyte=0.0):
    """A kernel-TCP bulk stream from host ``sender`` to ``receiver``.

    Returns ``(receiver, sink, source)``: the sink process's result is
    the byte count it read, the source's the time it began sending.
    """
    sender = world.host("sender")
    receiver = world.host("receiver")
    stack_a = sender.install_kernel_stack()
    stack_b = receiver.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    KernelTCP(stack_a)
    KernelTCP(stack_b)
    payload = bytes(total_bytes)

    def server():
        fd = yield Open("tcp")
        yield Ioctl(fd, SockIoctl.BIND, 9)
        received = 0
        while True:
            chunk = yield Read(fd)
            if not chunk:
                return received
            received += len(chunk)

    def client():
        fd = yield Open("tcp")
        if mss is not None:
            yield Ioctl(fd, SockIoctl.SET_MSS, mss)
        yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
        start = world.now
        for offset in range(0, len(payload), 4096):
            chunk = payload[offset : offset + 4096]
            if disk_ms_per_kbyte:
                yield Sleep(disk_ms_per_kbyte * 1e-3 * len(chunk) / 1024.0)
            yield Write(fd, chunk)
        yield Close(fd)
        return start

    sink = receiver.spawn("tcp-sink", server())
    source = sender.spawn("tcp-source", client())
    return receiver, sink, source


def _bsp_stream(
    world,
    payload: bytes,
    host=None,
    *,
    disk_ms_per_kbyte: float = 0.0,
    linger: bool = False,
    **endpoint_options,
):
    """A packet-filter BSP stream of ``payload`` from host ``sender``
    to ``receiver``.

    Returns a namespace: the two hosts, the ``source`` process (result:
    seconds the transfer took), the ``sink`` process (result: the bytes
    it received) and ``endpoints``, filled in as each side starts.
    ``linger`` makes the sink dally past the sender's longest
    backed-off retransmission gap, so a lost final ack cannot strand it
    (see :meth:`BSPEndpoint.linger`).
    """
    host = host or world.host
    sender = host("sender")
    receiver = host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()
    endpoints = {}

    def source():
        endpoint = BSPEndpoint(sender, local_socket=0x44, **endpoint_options)
        endpoints["sender"] = endpoint
        yield from endpoint.start()
        destination = PupAddress(
            net=1, host=receiver.address[-1], socket=0x35
        )
        start = world.now
        yield from endpoint.send_stream(
            receiver.address, destination, payload,
            disk_ms_per_kbyte=disk_ms_per_kbyte,
        )
        return world.now - start

    def sink():
        endpoint = BSPEndpoint(receiver, local_socket=0x35, **endpoint_options)
        endpoints["receiver"] = endpoint
        yield from endpoint.start()
        data = yield from endpoint.recv_all()
        if linger:
            yield from endpoint.linger()
        return data

    return SimpleNamespace(
        sender=sender,
        receiver=receiver,
        endpoints=endpoints,
        sink=receiver.spawn("bsp-sink", sink()),
        source=sender.spawn("bsp-source", source()),
    )


def measure_tcp_bulk(
    *,
    mss: int | None = None,
    total_bytes: int = 256 * 1024,
    disk_ms_per_kbyte: float = 0.0,
) -> float:
    """Kernel TCP process-to-process KBytes/sec.

    ``disk_ms_per_kbyte`` > 0 models the FTP variant: the source does a
    synchronous disk read before each send (§6.4: file-sourced TCP runs
    at half the memory-sourced rate).
    """
    world = World()
    _, sink, source = _tcp_stream(
        world, total_bytes, mss=mss, disk_ms_per_kbyte=disk_ms_per_kbyte
    )
    world.run_until_done(sink, source)
    assert sink.result == total_bytes
    duration = world.now - source.result
    return (total_bytes / 1024.0) / duration


def measure_bsp_bulk(
    *,
    total_bytes: int = 96 * 1024,
    disk_ms_per_kbyte: float = 0.0,
) -> float:
    """Packet-filter BSP process-to-process KBytes/sec."""
    world = World()
    stream = _bsp_stream(
        world, bytes(total_bytes), disk_ms_per_kbyte=disk_ms_per_kbyte
    )
    world.run_until_done(stream.source)
    return (total_bytes / 1024.0) / stream.source.result


def count_stream_crossings(transport: str, total_bytes: int = 64 * 1024) -> dict:
    """Figure 2-3: kernel-resident protocols confine overhead packets.

    Runs a reliable bulk stream and reports, for the *receiving* host,
    frames handled per user-visible read and domain crossings per
    KByte delivered — kernel TCP confines data+ack packets to the
    kernel; user-level BSP surfaces every one of them to user code.
    """
    world = World()
    if transport == "tcp":
        receiver, sink, _ = _tcp_stream(world, total_bytes)
    elif transport == "bsp":
        stream = _bsp_stream(world, bytes(total_bytes))
        receiver, sink = stream.receiver, stream.sink
    else:
        raise ValueError(f"unknown transport {transport!r}")
    world.run_until_done(sink)

    stats = receiver.kernel.stats
    kbytes = total_bytes / 1024.0
    return {
        "frames_received": stats.frames_received,
        "syscalls": stats.syscalls,
        "domain_crossings": stats.domain_crossings,
        "crossings_per_kbyte": stats.domain_crossings / kbytes,
        "syscalls_per_frame": stats.syscalls / max(1, stats.frames_received),
    }


# ---------------------------------------------------------------------------
# Table 6-7: Telnet
# ---------------------------------------------------------------------------


def measure_telnet(
    transport: str,
    display_cps: float,
    *,
    display_consumes_cpu: bool,
    characters: int = 3000,
) -> float:
    """Characters per second displayed at the user host."""
    from ..protocols.telnet import (
        telnet_bsp_server,
        telnet_bsp_user,
        telnet_tcp_server,
        telnet_tcp_user,
    )

    text = b"x" * characters
    world = World()
    server_host = world.host("server")
    user_host = world.host("user")
    display = DisplayDevice(display_cps, consumes_cpu=display_consumes_cpu)
    user_host.kernel.register_device("display", display)

    if transport == "bsp":
        server_host.install_packet_filter()
        user_host.install_packet_filter()
        user_proc = user_host.spawn("telnet-user", telnet_bsp_user(user_host))
        server_host.spawn(
            "telnet-server",
            telnet_bsp_server(server_host, user_host.address, text),
        )
    elif transport == "tcp":
        stack_a = server_host.install_kernel_stack()
        stack_b = user_host.install_kernel_stack()
        link_stacks(stack_a, stack_b)
        KernelTCP(stack_a)
        KernelTCP(stack_b)
        user_proc = user_host.spawn("telnet-user", telnet_tcp_user(user_host))
        server_host.spawn(
            "telnet-server",
            telnet_tcp_server(server_host, stack_b.ip_address, text),
        )
    else:
        raise ValueError(f"unknown telnet transport {transport!r}")

    world.run_until_done(user_proc)
    return user_proc.result / world.now


# ---------------------------------------------------------------------------
# Tables 6-5/6-8/6-9/6-10, figures 2-1/2-2/3-4/3-5: the paced receive path,
# kernel vs user-level demux
# ---------------------------------------------------------------------------


def populate_paced_receive(
    world,
    host=None,
    *,
    demux: str = "kernel",
    program: FilterProgram | None = None,
    packet_bytes: int = 128,
    count: int = 60,
    pace_seconds: float = 0.012,
    burst: int = 1,
    batching: bool = False,
):
    """A paced sender and one packet-filter receiver: the world behind
    the receive-cost tables, the event-count figures and ``repro run
    receive``.

    Host ``sender`` (a synthetic load, like the paper's) emits
    ``count`` frames, ``burst`` at a time, once host ``receiver`` has
    bound ``program`` (default: the one-field test filter); ``demux``
    picks who delivers them to the destination process — the kernel's
    packet filter, or a :class:`UserDemuxSystem` process over a pipe.

    Returns a namespace: ``receiver``, the ``dest`` process to run
    until, and — set the moment sending starts — the ledger ``mark``
    and the receiver's stats ``baseline`` a measurement scopes itself
    to.
    """
    host = host or world.host
    sender = host("sender")
    receiver = host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()
    run = SimpleNamespace(receiver=receiver, mark=None, baseline=None)

    def send_body():
        fd = yield Open("pf")
        if burst > 1:
            # Bursts leave in one vectored write (section 7's
            # write-batching) so they arrive back-to-back at wire speed
            # — that is what makes read batches form at the receiver.
            yield Ioctl(fd, PFIoctl.SETWRITEBATCH, True)
        frame = _payload(sender, packet_bytes, receiver.address)
        # Head start: let the receiver finish binding its filter.
        yield Sleep(0.05)
        run.baseline = receiver.kernel.stats.snapshot()
        if world.ledger is not None:
            run.mark = world.ledger.mark()
        sent = 0
        while sent < count:
            group = min(burst, count - sent)
            if group > 1:
                yield Write(fd, tuple([frame] * group))
            else:
                yield Write(fd, frame)
            sent += group
            yield Sleep(pace_seconds * burst)

    if demux == "kernel":

        def receive_body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, program or _test_filter())
            yield Ioctl(fd, PFIoctl.SETBATCH, batching)
            yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
            received = 0
            while received < count:
                received += len((yield Read(fd)))
            return received

        run.dest = receiver.spawn("dest", receive_body())

    elif demux == "user":
        system = UserDemuxSystem(
            receiver, classify=lambda frame: "dest", batching=batching
        )
        inbox = system.add_destination("dest")

        def dest_body():
            received = 0
            while received < count:
                yield from inbox.read()
                received += 1
            return received

        run.dest = receiver.spawn("dest", dest_body())
        system.register(inbox, run.dest)
        demux_proc = receiver.spawn("demuxd", system.run())
        system.attach(demux_proc)

    else:
        raise ValueError(f"unknown demux {demux!r}")

    sender.spawn("sender", send_body())
    return run


def _receive_cost_ms(count: int, **options) -> float:
    """Receiver-host ledger cost per packet, from the moment sending
    starts, over one :func:`populate_paced_receive` world."""
    world = World(ledger=True)
    run = populate_paced_receive(world, count=count, **options)
    world.run_until_done(run.dest)
    spent = world.ledger.total_cost(host="receiver", start=run.mark)
    return spent / count * 1000.0


def measure_receive_cost(
    demux: str,
    packet_bytes: int,
    *,
    batching: bool = False,
    count: int = 60,
    burst: int = 1,
) -> float:
    """Receiver-side milliseconds of work per received packet.

    The figure of merit is receiver-host CPU time consumed per packet —
    interrupt service, filtering, wakeups, context switches, syscalls
    and every copy on the way to the destination process.  ``burst`` >
    1 with batching reproduces the table 6-9 configuration ("the
    results are about the same for four or more packets per batch").

    The per-packet cost is regenerated from the charge ledger: the sum
    of every attributed cost event on the receiving host from the
    moment sending starts, divided by the packet count.
    """
    return _receive_cost_ms(
        count,
        demux=demux,
        packet_bytes=packet_bytes,
        batching=batching,
        burst=burst,
    )


def filter_of_length(instructions: int) -> FilterProgram:
    """An always-true filter executing exactly ``instructions`` words.

    Zero instructions is modelled as the 1-word PUSHONE program (the
    paper's 0-length row is its baseline measurement artifact; the
    marginal cost per instruction is what the table is about).
    """
    if instructions <= 1:
        return FilterProgram(asm("PUSHONE"), priority=10)
    items: list = []
    remaining = instructions
    items.append("PUSHONE")
    remaining -= 1
    while remaining >= 2:
        items.append("PUSHONE")
        items.append(("NOPUSH", "OR"))
        remaining -= 2
    if remaining:
        items.append(("NOPUSH", "NOP"))
    return FilterProgram(asm(*items), priority=10)


def measure_filter_cost(instructions: int, *, count: int = 60) -> float:
    """Per-packet receive cost (ms) with one bound filter of the given
    length, batching enabled — the table 6-10 configuration.  Aggregated
    from the charge ledger, like :func:`measure_receive_cost`."""
    return _receive_cost_ms(
        count,
        program=filter_of_length(instructions),
        batching=True,
        pace_seconds=0.010,
    )


def count_receive_events(
    demux: str,
    *,
    batching: bool = False,
    burst: int = 1,
    count: int = 60,
) -> dict[str, float]:
    """Per-packet receiver-host event counts — the quantities the
    paper's cost diagrams (figures 2-1, 2-2, 3-4, 3-5) draw as arrows.

    Returns context switches, system calls, data copies, domain
    crossings and wakeups per received packet.
    """
    world = World()
    run = populate_paced_receive(
        world,
        demux=demux,
        batching=batching,
        burst=burst,
        count=count,
    )
    world.run_until_done(run.dest)
    per_packet = run.receiver.kernel.stats.delta(run.baseline).per_packet(count)
    return {
        "context_switches": per_packet["context_switches"],
        "syscalls": per_packet["syscalls"],
        "copies": per_packet["copies"],
        "domain_crossings": per_packet["domain_crossings"],
        "wakeups": per_packet["wakeups"],
        "cpu_ms": per_packet["cpu_time"] * 1000.0,
    }


# ---------------------------------------------------------------------------
# §6.1: kernel per-packet processing profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelProfile:
    """What the §6.1 gprof study reported, measured on our kernel."""

    pf_ms_per_packet: float          #: PF kernel CPU per PF packet
    pf_filter_fraction: float        #: share spent evaluating predicates
    mean_predicates_tested: float
    ip_ms_per_packet: float          #: full IP->UDP input path CPU
    ip_layer_only_ms: float          #: IP layer alone


PROFILE_PACKET_BYTES = 128
"""Frame size of both halves of the §6.1 profile's traffic."""


def kernel_profile(*, ports: int = 12, packets: int = 120) -> KernelProfile:
    """Run a mixed workload and profile kernel CPU per packet.

    ``ports`` processes with distinct single-field filters receive a
    uniform traffic mix (so the average packet is tested against about
    half the active filters, modulo the priority reordering the paper
    describes), while a parallel UDP flow on a second host pair
    exercises the kernel IP input path.  Every number in the returned
    profile is aggregated from the charge ledger's attributed cost
    events — the simulation's gprof — rather than recomputed from the
    cost-model constants.
    """
    from ..sim.ledger import Primitive

    world = World(ledger=True)
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()

    # --- the PF side ---
    def listener(index: int):
        def body():
            fd = yield Open("pf")
            program = compile_expr(
                (word(6) == TEST_ETHERTYPE) & (word(7) == index),
                priority=10,
            )
            yield Ioctl(fd, PFIoctl.SETFILTER, program)
            yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
            taken = 0
            while True:
                batch = yield Read(fd)
                taken += len(batch)

        return body()

    for index in range(ports):
        receiver.spawn(f"listener-{index}", listener(index))

    def pf_sender():
        fd = yield Open("pf")
        for sequence in range(packets):
            index = sequence % ports
            body = index.to_bytes(2, "big") + bytes(PROFILE_PACKET_BYTES - 16 - 2)
            frame = sender.link.frame(
                receiver.address, sender.address, TEST_ETHERTYPE, body
            )
            yield Write(fd, frame)
            yield Sleep(0.008)
        return world.now

    # --- the kernel IP/UDP side (its own host pair, so the PF numbers
    # above and the IP numbers below never share a ledger scope) ---
    ip_sender = world.host("ip-sender")
    ip_receiver = world.host("ip-receiver")
    stack_a = ip_sender.install_kernel_stack()
    stack_b = ip_receiver.install_kernel_stack()
    link_stacks(stack_a, stack_b)
    KernelUDP(stack_a)
    KernelUDP(stack_b)

    def udp_sender():
        fd = yield Open("udp")
        yield Ioctl(fd, SockIoctl.CONNECT, (stack_b.ip_address, 9))
        data = bytes(
            max(0, PROFILE_PACKET_BYTES - ip_sender.link.header_length - 28)
        )
        for _ in range(packets // 3):
            yield Write(fd, data)
            yield Sleep(0.008)

    send_proc = sender.spawn("pf-sender", pf_sender())
    udp_proc = ip_sender.spawn("udp-sender", udp_sender())
    world.run_until_done(send_proc, udp_proc)
    world.run(until=world.now + 0.2)

    ledger = world.ledger
    pf_events = ledger.breakdown("receiver")

    def cost_of(*names: str) -> float:
        return sum(pf_events[n]["cost"] for n in names if n in pf_events)

    # Everything the kernel spends on a PF packet between the interrupt
    # and the reader's wakeup — the §6.1 "packet filter" line.
    seen = pf_events[Primitive.FRAME_RX.value]["quantity"]
    filter_ms = cost_of(
        Primitive.FILTER_PREDICATE.value, Primitive.FILTER_INSTRUCTION.value
    ) * 1000.0
    pf_total_ms = filter_ms + cost_of(
        Primitive.INTERRUPT.value,
        Primitive.BUFFER.value,
        Primitive.PF_FIXED.value,
        Primitive.MICROTIME.value,
        Primitive.WAKEUP.value,
    ) * 1000.0
    pf_ms = pf_total_ms / seen
    pf_filter_fraction = filter_ms / pf_total_ms
    predicates = pf_events[Primitive.FILTER_PREDICATE.value]["quantity"]

    # "This includes all protocol processing up to the TCP and UDP
    # layers" — protocol processing only, not interrupt service.
    ip_events = ledger.breakdown("ip-receiver")
    datagrams = ip_events[Primitive.IP_INPUT.value]["events"]
    ip_layer_ms = ip_events[Primitive.IP_INPUT.value]["cost"] * 1000.0
    transport_ms = ip_events[Primitive.TRANSPORT_INPUT.value]["cost"] * 1000.0

    return KernelProfile(
        pf_ms_per_packet=pf_ms,
        pf_filter_fraction=pf_filter_fraction,
        mean_predicates_tested=predicates / seen,
        ip_ms_per_packet=(ip_layer_ms + transport_ms) / datagrams,
        ip_layer_only_ms=ip_layer_ms / datagrams,
    )


# ---------------------------------------------------------------------------
# Chaos soaks: the receive path under burst loss, reordering, corruption
# ---------------------------------------------------------------------------

CHAOS_SEEDS = (11, 23, 37, 41, 59)
"""Fixed soak seeds: every run of the matrix replays exactly."""

ACCEPTANCE_CHAOS = ChaosConfig(
    burst_enter_rate=0.08,
    burst_exit_rate=0.24,
    burst_loss_rate=0.85,
    reorder_rate=0.15,
    reorder_jitter=3e-3,
    corrupt_rate=0.05,
    duplicate_rate=0.05,
)
"""The hardening acceptance profile: ~21% expected frame loss in
bursts, plus reordering, single-bit corruption and duplication.  Every
protocol must still complete byte-identically under it."""

SOAK_RETRIES = 24
"""Retry budget for soak transfers: bursts of ~85% loss need patience,
and an abort below this budget is a receive-path bug, not bad luck."""


def _ledger_report(world: World, host: str) -> dict:
    """The observability block a ledger-enabled soak adds to its result:
    where packets were lost (``drops``), the per-stage receive-path
    latency distribution (``stage_percentiles``), and the attributed
    cost breakdown for the interesting host."""
    ledger = world.ledger
    return {
        "world": world,
        "ledger": ledger,
        "drops": ledger.drop_summary(),
        "stage_percentiles": ledger.stage_percentiles(host=host),
        "breakdown": ledger.breakdown(host),
    }


def _telemetry_report(world: World) -> dict:
    """The block a telemetry-armed run adds: the sampler itself (all
    series readable), and the structured alert log."""
    return {
        "world": world,
        "telemetry": world.telemetry,
        "alerts": list(world.telemetry.alerts),
    }


# Each soak is populated by one function handed the world: it weathers
# the segment with ``chaos``, builds the hosts through ``host`` and
# spawns the protocol, and returns ``(watch, outcome)`` — the processes
# whose completion ends the soak, and a callable giving its result once
# they are done.


def _populate_bsp_chaos(
    world,
    host=None,
    *,
    chaos: ChaosConfig,
    seed: int = 0,
    payload_bytes: int = 24 * 1024,
):
    payload = bytes((seed + index) % 251 for index in range(payload_bytes))
    stream = _bsp_stream(
        world, payload, host, linger=True, max_retries=SOAK_RETRIES
    )
    world.segment.set_chaos(chaos)

    def outcome() -> dict:
        data = stream.sink.result or b""
        return {
            "intact": data == payload,
            "delivered_bytes": len(data),
            "duration": world.now,
            "sender": stream.endpoints["sender"].stats,
            "receiver": stream.endpoints["receiver"].stats,
            "segment_lost": world.segment.frames_lost,
            "segment_corrupted": world.segment.frames_corrupted,
        }

    return (stream.source, stream.sink), outcome


def _populate_vmtp_chaos(
    world,
    host=None,
    *,
    chaos: ChaosConfig,
    seed: int = 0,
    calls: int = 12,
    segment_bytes: int = 8 * 1024,
):
    world.segment.set_chaos(chaos)
    blob = bytes((seed + index) % 253 for index in range(segment_bytes))
    client_host, server_host = _vmtp_hosts(world, blob, host)
    endpoint = _vmtp_client(client_host, server_host, max_retries=SOAK_RETRIES)

    def client():
        yield from endpoint.start()
        intact = 0
        for _ in range(calls):
            response = yield from endpoint.call(b"read")
            if response == blob:
                intact += 1
        return intact

    proc = client_host.spawn("vmtp-client", client())

    def outcome() -> dict:
        return {
            "intact": proc.result == calls,
            "calls_intact": proc.result,
            "calls": calls,
            "duration": world.now,
            "retries": endpoint.retries,
            "corrupt_dropped": endpoint.corrupt_dropped,
            "segment_lost": world.segment.frames_lost,
        }

    return (proc,), outcome


def _populate_rarp_chaos(world, host=None, *, chaos: ChaosConfig, seed: int = 0):
    from ..protocols.rarp import RARPServer, rarp_discover

    # The ARP wire format carries no checksum, so corruption is forced
    # off for this protocol: a flipped bit in the address field would be
    # indistinguishable from a legitimate (different) answer.
    world.segment.set_chaos(replace(chaos, corrupt_rate=0.0))
    host = host or world.host
    server_host = host("rarp-server")
    client_host = host("client")
    server_host.install_packet_filter()
    client_host.install_packet_filter()
    expected_ip = 0x0A000007
    server = RARPServer(server_host, {client_host.address: expected_ip})
    server_host.spawn("rarpd", server.run())
    proc = client_host.spawn(
        "diskless",
        rarp_discover(client_host, retries=SOAK_RETRIES, timeout=0.25),
    )

    def outcome() -> dict:
        return {
            "intact": proc.result == expected_ip,
            "ip": proc.result,
            "duration": world.now,
            "segment_lost": world.segment.frames_lost,
        }

    return (proc,), outcome


def _populate_pup_echo_chaos(
    world, host=None, *, chaos: ChaosConfig, seed: int = 0, count: int = 8
):
    from ..protocols.pup_echo import pup_echo_server, pup_ping

    world.segment.set_chaos(chaos)
    host = host or world.host
    server_host = host("echo-server")
    client_host = host("client")
    server_host.install_packet_filter()
    client_host.install_packet_filter()
    server_host.spawn("echod", pup_echo_server(server_host))
    proc = client_host.spawn(
        "pinger",
        pup_ping(
            client_host, server_host.address,
            count=count, retries=SOAK_RETRIES,
        ),
    )

    def outcome() -> dict:
        return {
            "intact": len(proc.result or ()) == count,
            "round_trips": proc.result,
            "duration": world.now,
            "segment_lost": world.segment.frames_lost,
        }

    return (proc,), outcome


CHAOS_SOAKS = {
    "bsp": (_populate_bsp_chaos, "receiver"),
    "vmtp": (_populate_vmtp_chaos, "client"),
    "rarp": (_populate_rarp_chaos, "client"),
    "pup": (_populate_pup_echo_chaos, "client"),
}
"""Protocol -> ``(populate, host)``: the function that populates a
world with that protocol's soak, and the host whose receive path the
soak is about."""


def _run_chaos(
    protocol: str,
    *,
    chaos: ChaosConfig = ACCEPTANCE_CHAOS,
    seed: int = 0,
    ledger: bool = False,
    telemetry: bool = False,
    **options,
) -> dict:
    populate, focus = CHAOS_SOAKS[protocol]
    world = World(seed=seed, ledger=ledger, telemetry=telemetry)
    watch, outcome = populate(world, chaos=chaos, seed=seed, **options)
    world.run_until_done(*watch)
    result = outcome()
    if ledger:
        result.update(_ledger_report(world, focus))
    if telemetry:
        result.update(_telemetry_report(world))
    return result


def run_bsp_chaos(**options) -> dict:
    """One BSP file transfer (``payload_bytes``, default 24 KB) through
    a chaotic segment.

    ``chaos`` (default :data:`ACCEPTANCE_CHAOS`) and ``seed`` pick the
    weather.  Returns a dict with ``intact`` (bytes survived exactly),
    the sender/receiver :class:`~repro.protocols.bsp.StreamStats`, and
    the elapsed simulated time.  ``ledger=True`` additionally traces
    every charge and packet span, adding the :func:`_ledger_report`
    keys; ``telemetry=True`` the :func:`_telemetry_report` ones.
    """
    return _run_chaos("bsp", **options)


def run_vmtp_chaos(**options) -> dict:
    """A VMTP bulk-read exchange (client pulls ``calls`` segments of
    ``segment_bytes``) through a chaotic segment; replies must arrive
    byte-identical.  Options as :func:`run_bsp_chaos`."""
    return _run_chaos("vmtp", **options)


def run_rarp_chaos(**options) -> dict:
    """A diskless RARP boot through a chaotic segment: the retry loop
    has to survive burst loss, reordering and duplication.  Options as
    :func:`run_bsp_chaos`."""
    return _run_chaos("rarp", **options)


def run_pup_echo_chaos(**options) -> dict:
    """``count`` Pup echo pings through a chaotic segment; every echo
    must come back with its payload intact (the Pup checksum screens
    corruption).  Options as :func:`run_bsp_chaos`."""
    return _run_chaos("pup", **options)


SPURIOUS_CALLS = 16
SPURIOUS_SERVICE_TIME = 0.18
SPURIOUS_SEGMENT_BYTES = 2048


def measure_spurious_retransmissions(*, adaptive_rto: bool, seed: int = 0) -> int:
    """Request retries against a slow-but-reliable VMTP server.

    :data:`SPURIOUS_CALLS` reads of a :data:`SPURIOUS_SEGMENT_BYTES`
    reply; the server takes :data:`SPURIOUS_SERVICE_TIME` (think: a disk
    seek) to answer — longer than the historical fixed 100 ms retry
    timeout — and the response path carries seeded reordering jitter
    (the per-sender chaos override; no loss anywhere).  Every answer arrives intact,
    so every retry counted here re-asks a question the server is
    already working on: pure spurious load.  The fixed timer fires on
    every single call forever; the adaptive timer eats the first
    round trip, learns the path, and stops.
    """
    world = World(seed=seed)
    blob = bytes(index % 249 for index in range(SPURIOUS_SEGMENT_BYTES))
    client_host, server_host = _vmtp_hosts(
        world, blob, service_time=SPURIOUS_SERVICE_TIME
    )
    world.segment.set_chaos(
        ChaosConfig(reorder_rate=0.3, reorder_jitter=0.1),
        sender=server_host.address,
    )

    def client():
        endpoint = _vmtp_client(
            client_host, server_host,
            adaptive_rto=adaptive_rto, max_retries=SOAK_RETRIES,
        )
        yield from endpoint.start()
        for _ in range(SPURIOUS_CALLS):
            response = yield from endpoint.call(b"read")
            assert response == blob, "loss-free exchange must stay intact"
        return endpoint.retries

    proc = client_host.spawn("vmtp-client", client())
    world.run_until_done(proc)
    return proc.result


# ---------------------------------------------------------------------------
# Receive livelock: interrupt collapse vs polling plateau
# ---------------------------------------------------------------------------


STORM_FRAME_BYTES = 128
"""Frame size of every storm's traffic, and the size the saturation
rate is quoted for."""


def receive_saturation_pps(costs=None) -> float:
    """Estimated receive-path saturation rate, packets/second.

    The offered-load axis of the livelock benchmark is expressed as
    multiples of this: the rate at which the full per-packet receive
    cost (interrupt, buffer, filter, copy, syscall, context switch,
    wakeup) of a :data:`STORM_FRAME_BYTES` frame exactly consumes the
    CPU.
    """
    from ..sim.costs import MICROVAX_II

    costs = costs or MICROVAX_II
    per_packet = (
        costs.interrupt_service
        + costs.buffer_cost(STORM_FRAME_BYTES)
        + costs.pf_fixed
        + costs.filter_cost(1, 4)
        + costs.copy_cost(STORM_FRAME_BYTES)
        + costs.syscall
        + costs.context_switch
        + costs.wakeup
    )
    return 1.0 / per_packet


OVERLOAD_RING = 64
"""The storm receiver's NIC input ring, in frames."""
OVERLOAD_QUEUE = 32
"""Its reader's port queue, in packets."""
OVERLOAD_POOL = 192
OVERLOAD_PORT_SHARE = 64
"""Polling mode's shared buffer pool, and the share one port may hold."""


def populate_overload_storm(
    world,
    host=None,
    *,
    mode: str = "interrupt",
    offered_multiplier: float = 1.0,
    warmup: float = 0.25,
    duration: float = 1.0,
    kill_reader_at: float | None = None,
):
    """A packet storm against one receiver: the livelock experiment.

    A zero-cost blaster host offers ``offered_multiplier`` times the
    receiver's saturation rate for ``warmup + duration`` seconds while
    one process reads from a packet-filter port.

    ``mode="interrupt"`` is the classic ungated path: every arrival
    charges its receive interrupt immediately (infinite interrupt
    capacity), so past saturation the CPU cursor races unboundedly
    ahead of the wire and reads complete ever later — goodput measured
    inside the window collapses.  ``mode="polling"`` installs an
    :class:`~repro.sim.overload.RxPolicy` and a shared
    :class:`~repro.sim.overload.BufferPool`: CPU-gated interrupts,
    budgeted polling past the ring watermark, early shedding at
    admission, and a guaranteed user CPU share — goodput holds a flat
    plateau no matter the offered load.

    ``world`` needs its ledger on: goodput is derived from ledger
    windows — delivered packet spans whose syscall-return stage lands
    inside ``[warmup, warmup + duration)``.  ``kill_reader_at`` kills
    the reading process mid-storm (``SimKernel.kill``); ``pool_audit``
    must come back empty regardless — the crash-safety acceptance check.

    Returns a namespace: the ``receiver`` host, the ``reader`` process,
    the ``pool`` (None in interrupt mode) and ``outcome()``, the plain
    result numbers, to be called once the world has run to quiescence
    (the blaster stops by itself, the backlog drains — post-window
    deliveries don't contaminate the measurement — and only then is
    the pool audit meaningful).
    """
    from ..sim.costs import FREE
    from ..sim.ledger import STAGE_SYSCALL_RETURN
    from ..sim.overload import BufferPool, RxPolicy

    if mode not in ("interrupt", "polling"):
        raise ValueError(f"unknown storm mode {mode!r}")
    host = host or world.host
    blaster = host("blaster", costs=FREE)
    receiver = host("receiver", input_queue_limit=OVERLOAD_RING)
    blaster.install_packet_filter()
    receiver.install_packet_filter(flow_cache=True)
    pool = None
    if mode == "polling":
        policy = RxPolicy(shed_watermark=OVERLOAD_RING // 2)
        pool = BufferPool(OVERLOAD_POOL, port_share=OVERLOAD_PORT_SHARE)
        receiver.enable_overload(policy=policy, pool=pool)

    saturation = receive_saturation_pps(world.costs)
    offered_pps = saturation * offered_multiplier
    reader = receiver.spawn("reader", read_forever(OVERLOAD_QUEUE))
    blaster.spawn(
        "blaster",
        blast(
            world,
            _payload(blaster, STORM_FRAME_BYTES, receiver.address),
            1.0 / offered_pps,
            head_start=0.02,
            until=warmup + duration + 0.05,
        ),
    )
    if kill_reader_at is not None:
        world.scheduler.schedule_at(
            kill_reader_at, receiver.kernel.kill, reader
        )
    baseline = receiver.kernel.stats.snapshot()
    started_at = world.now

    def outcome() -> dict:
        delivered_in_window = 0
        for span in world.ledger.spans_for(receiver.name):
            if span.outcome != "delivered":
                continue
            done = span.stage_time(STAGE_SYSCALL_RETURN)
            if done is not None and warmup <= done < warmup + duration:
                delivered_in_window += 1
        nic = receiver.nic
        return {
            "mode": mode,
            "offered_multiplier": offered_multiplier,
            "saturation_pps": saturation,
            "offered_pps": offered_pps,
            "goodput_pps": delivered_in_window / duration,
            "delivered_in_window": delivered_in_window,
            "drops": world.ledger.drop_summary(),
            "pool_audit": pool.audit() if pool is not None else {},
            "nic_polls": nic.polls,
            "nic_frames_polled": nic.frames_polled,
            "nic_poll_mode_entries": nic.poll_mode_entries,
            "nic_frames_shed": nic.frames_shed,
            "nic_frames_nobuf": nic.frames_nobuf,
            "nic_frames_dropped": nic.frames_dropped,
            "receiver_rates": receiver.kernel.stats.rates(
                baseline, max(world.now - started_at, 1e-12)
            ),
            "duration": world.now,
        }

    return SimpleNamespace(
        receiver=receiver, reader=reader, pool=pool, outcome=outcome
    )


def run_overload_storm(*, telemetry: bool = False, **options) -> dict:
    """Run :func:`populate_overload_storm` (which documents the
    ``options``) in a world of its own, to quiescence.

    Returns its ``outcome()`` numbers plus the live objects tests
    inspect: ``world``, ``ledger``, ``telemetry`` and its ``alerts``,
    the ``pool``, the ``reader`` process and the ``receiver_host``.
    """
    world = World(ledger=True, telemetry=telemetry)
    storm = populate_overload_storm(world, **options)
    world.run()
    return {
        **storm.outcome(),
        "pool": storm.pool,
        "reader": storm.reader,
        "receiver_host": storm.receiver,
        "world": world,
        "ledger": world.ledger,
        "telemetry": world.telemetry,
        "alerts": (
            [] if world.telemetry is None else list(world.telemetry.alerts)
        ),
    }


# ---------------------------------------------------------------------------
# Flow-cache miss storm (shardable): millions of short flows
# ---------------------------------------------------------------------------


def run_flow_storm(
    *,
    segments: int = 2,
    shards: int = 1,
    seed: int = 0,
    duration: float = 0.5,
    flows: int = 256,
    cache_size: int = 64,
    ledger: bool = True,
    **options,
) -> dict:
    """The flow-cache miss storm, on a sharded multi-segment topology.

    Each of ``segments`` Ethernets runs a blaster cycling through
    ``flows`` spoofed source addresses against a receiver whose flow
    cache holds only ``cache_size`` entries — a deterministic rendition
    of the short-flow regime where a direct-mapped classification memo
    thrashes — while a slice of the traffic crosses the bridges.
    ``shards`` partitions the segments over that many worker processes;
    the result is bitwise identical for any value (the sharding
    difftest pins this).

    Returns the merged :class:`~repro.sim.orchestrator.TopologyResult`
    plus aggregated cache/goodput headline numbers.
    """
    from ..sim.orchestrator import run_topology
    from .topologies import flow_storm_topology

    spec = flow_storm_topology(
        segments=segments,
        seed=seed,
        duration=duration,
        flows=flows,
        cache_size=cache_size,
        ledger=ledger,
        **options,
    )
    result = run_topology(spec, shards=shards)
    caches = [report["flow_cache"] for report in result.reports.values()]
    hits = sum(cache["hits"] for cache in caches)
    misses = sum(cache["misses"] for cache in caches)
    lookups = hits + misses
    frames_received = sum(
        report["received"] for report in result.reports.values()
    )
    return {
        "result": result,
        "segments": segments,
        "shards": result.shards,
        "duration": duration,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": (hits / lookups) if lookups else 0.0,
        "frames_received": frames_received,
        "frames_forwarded": sum(
            wire["frames_forwarded"] for wire in result.wire.values()
        ),
        "events_fired": result.events_fired,
        "windows": result.windows,
        "wall_seconds": result.wall_seconds,
        "sim_pps": frames_received / duration if duration else 0.0,
    }


def run_partition_storm(
    *,
    segments: int = 2,
    shards: int = 1,
    seed: int = 0,
    duration: float = 1.2,
    **options,
) -> dict:
    """An adaptive-RTO backoff storm across a healing partition.

    A VMTP client on ``lan0`` calls a server on the chain's far end
    while the middle bridge link goes down over ``[PARTITION_AT,
    HEAL_AT)`` (:mod:`repro.bench.topologies`).  Requests in flight
    during the outage are dropped under ``dropped_link_down``; the
    client's Jacobson timer backs off exponentially (firing the
    ``rto_backoff_storm`` watchdog) until a backed-off retry lands on
    the healed link.  The
    cross-segment ``partition:*`` watchdog must fire during the outage
    — and the per-segment livelock watchdogs must *not*: local traffic
    stays healthy throughout, which is exactly the signature that
    separates a partition from an overload.

    Returns the merged result plus the alert groups and drop counts the
    acceptance checks care about.
    """
    from ..sim.orchestrator import run_topology
    from .topologies import partition_storm_topology

    spec = partition_storm_topology(
        segments=segments,
        seed=seed,
        duration=duration,
        **options,
    )
    result = run_topology(spec, shards=shards)
    alerts = list(result.telemetry.alerts) if result.telemetry else []
    dropped_link_down = sum(
        wire.get("frames_dropped_link_down", 0)
        for wire in result.wire.values()
    )
    vmtp = {
        name: report["vmtp"]
        for name, report in result.reports.items()
        if "vmtp" in report
    }
    return {
        "result": result,
        "segments": segments,
        "shards": result.shards,
        "duration": duration,
        "partition_alerts": [
            alert for alert in alerts if alert.rule.startswith("partition:")
        ],
        "backoff_alerts": [
            alert for alert in alerts if alert.rule == "rto_backoff_storm"
        ],
        "livelock_alerts": [
            alert for alert in alerts if alert.rule == "receive_livelock"
        ],
        "dropped_link_down": dropped_link_down,
        "vmtp": vmtp,
        "windows": result.windows,
        "wall_seconds": result.wall_seconds,
    }
