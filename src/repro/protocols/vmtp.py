"""VMTP — the request-response transport of section 5.2 / tables 6-2/6-3.

Cheriton's VMTP (SIGCOMM '86) is a *message transaction* protocol: a
client sends a request message, the server replies with a response
message, and messages larger than one packet travel as a numbered
*segment group*.  The paper used it for the head-to-head comparison
because it existed both ways: "there is both a packet-filter based
implementation and a kernel-resident implementation ... they follow
essentially the same pattern of packet transport."

We reproduce that structure exactly:

* this module defines the **wire format** and the **transaction core**
  — every protocol decision (reassembly, at-most-once duplicate
  suppression, the response cache and its selective retransmission,
  accepting a response and acknowledging it), free of I/O — so the two
  implementations really do exchange the same packets;
* it also holds the **user-level implementation**: processes driving
  that core through the packet filter, with received-packet batching
  (table 6-4's knob);
* :mod:`repro.kernelnet.vmtp` is the kernel-resident implementation,
  driving the same core at interrupt level.

The header is laid out on 16-bit boundaries so packet-filter programs
can select on it the way figure 3-9 selects on Pup sockets — after the
14-byte 10 Mb/s Ethernet header, packet words 7..12 are::

    word 7   kind (high byte)        REQUEST / RESPONSE / RSPACK
    word 8   client id
    word 9   server id
    word 10  transaction number
    word 11  segment index (high byte) | segment count (low byte)
    word 12  total message length in bytes

Like the measured configuration, the paper's VMTP checksummed nothing
("note that TCP checksums all data, whereas these implementations of
VMTP do not").  Ours carries a 2-byte trailer (Pup's add-and-left-cycle
sum, 0xFFFF = unchecksummed) so bit-flip fault injection is detectable;
the sum is computed outside the simulated cost model, so the measured
tables keep parity with the paper's unchecksummed configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from ..core.compiler import compile_expr, word
from ..core.ioctl import PFIoctl
from ..core.port import ReadTimeoutPolicy
from ..core.program import FilterProgram
from ..sim.costs import CostModel
from ..sim.errors import SimTimeout
from ..sim.ledger import Primitive
from ..sim.process import Compute, Ioctl, Open, Read, Select, Write
from .ethertypes import ETHERTYPE_VMTP
from .pup import NO_CHECKSUM, pup_checksum
from .rto import RetransmitTimer

__all__ = [
    "VMTPKind",
    "VMTPPacket",
    "VMTPError",
    "VMTP_HEADER_BYTES",
    "VMTP_TRAILER_BYTES",
    "VMTP_SEGMENT_BYTES",
    "VMTP_MAX_SEGMENTS",
    "VMTP_MAX_MESSAGE_BYTES",
    "VMTPRequest",
    "VMTPServerCore",
    "VMTPTransaction",
    "client_filter",
    "server_filter",
    "VMTPClient",
    "VMTPServer",
]

VMTP_HEADER_BYTES = 14
VMTP_TRAILER_BYTES = 2
"""Checksum trailer after the payload (0xFFFF = unchecksummed)."""
VMTP_SEGMENT_BYTES = 1024
"""Payload bytes per packet — 1 KByte segments, as in VMTP."""
VMTP_MAX_SEGMENTS = 16
"""Segments per message group (16 KBytes), VMTP's segment-group size."""
VMTP_MAX_MESSAGE_BYTES = VMTP_SEGMENT_BYTES * VMTP_MAX_SEGMENTS
"""The longest message: one full segment group."""

REQUEST_RETRY_TIMEOUT = 0.1
"""Initial request-retry timeout; with ``adaptive_rto`` (the default)
it only seeds the Jacobson timer, which then tracks the measured
transaction round trip."""
MAX_REQUEST_RETRIES = 8

ALL_SEGMENTS = 0xFFFF
"""Segment mask requesting the whole group."""

# Word offsets *within the Ethernet frame* for filter programs
# (10 Mb/s link: 14-byte header = words 0..6, type in word 6).
WORD_ETHERTYPE = 6
WORD_KIND = 7
WORD_CLIENT = 8
WORD_SERVER = 9
WORD_TRANSACTION = 10


class VMTPError(ValueError):
    """Malformed VMTP packet."""


class VMTPKind(enum.IntEnum):
    REQUEST = 1
    RESPONSE = 2
    RSPACK = 3   #: client's acknowledgement of a complete response


@dataclass(frozen=True)
class VMTPPacket:
    """One VMTP packet (one segment of a message group).

    ``segment_mask`` rides on REQUEST packets: bit *i* set means the
    client still needs segment *i* of the response — VMTP's selective
    retransmission, which matters when receive-queue overflows drop
    parts of a group (the very effect behind table 6-4's batching gap).
    """

    kind: VMTPKind
    client: int
    server: int
    transaction: int
    seg_index: int
    seg_count: int
    total_length: int
    segment_mask: int = ALL_SEGMENTS
    payload: bytes = b""

    def encode(self) -> bytes:
        head = bytearray(VMTP_HEADER_BYTES)
        head[0] = self.kind
        head[2:4] = self.client.to_bytes(2, "big")
        head[4:6] = self.server.to_bytes(2, "big")
        head[6:8] = self.transaction.to_bytes(2, "big")
        head[8] = self.seg_index
        head[9] = self.seg_count
        head[10:12] = self.total_length.to_bytes(2, "big")
        head[12:14] = self.segment_mask.to_bytes(2, "big")
        body = bytes(head) + self.payload
        return body + pup_checksum(body).to_bytes(2, "big")

    @classmethod
    def decode(cls, data: bytes) -> "VMTPPacket":
        if len(data) < VMTP_HEADER_BYTES + VMTP_TRAILER_BYTES:
            raise VMTPError("packet shorter than the VMTP header + trailer")
        checksum = int.from_bytes(data[-VMTP_TRAILER_BYTES:], "big")
        body = data[:-VMTP_TRAILER_BYTES]
        if checksum != NO_CHECKSUM and checksum != pup_checksum(body):
            raise VMTPError("VMTP checksum mismatch")
        try:
            kind = VMTPKind(body[0])
        except ValueError as exc:
            raise VMTPError(f"unknown VMTP kind {body[0]}") from exc
        return cls(
            kind=kind,
            client=int.from_bytes(body[2:4], "big"),
            server=int.from_bytes(body[4:6], "big"),
            transaction=int.from_bytes(body[6:8], "big"),
            seg_index=body[8],
            seg_count=body[9],
            total_length=int.from_bytes(body[10:12], "big"),
            segment_mask=int.from_bytes(body[12:14], "big"),
            payload=body[VMTP_HEADER_BYTES:],
        )


def segment_message(
    kind: VMTPKind,
    client: int,
    server: int,
    transaction: int,
    message: bytes,
    *,
    segment_mask: int = ALL_SEGMENTS,
) -> list[VMTPPacket]:
    """Split ``message`` into its segment group."""
    if len(message) > VMTP_MAX_MESSAGE_BYTES:
        raise VMTPError(
            f"{len(message)}-byte message exceeds the "
            f"{VMTP_MAX_MESSAGE_BYTES}-byte group limit"
        )
    chunks = [
        message[offset : offset + VMTP_SEGMENT_BYTES]
        for offset in range(0, len(message), VMTP_SEGMENT_BYTES)
    ] or [b""]
    return [
        VMTPPacket(
            kind=kind,
            client=client,
            server=server,
            transaction=transaction,
            seg_index=index,
            seg_count=len(chunks),
            total_length=len(message),
            segment_mask=segment_mask,
            payload=chunk,
        )
        for index, chunk in enumerate(chunks)
    ]


class MessageAssembler:
    """Collects a segment group back into a message (either side)."""

    def __init__(self) -> None:
        self._segments: dict[int, bytes] = {}
        self._count: int | None = None

    def add(self, packet: VMTPPacket) -> bytes | None:
        """Returns the whole message once every segment has arrived."""
        self._count = packet.seg_count
        self._segments[packet.seg_index] = packet.payload
        if len(self._segments) == self._count:
            return b"".join(self._segments[i] for i in range(self._count))
        return None

    def missing_mask(self) -> int:
        """Selective-retransmission mask: bit i set = segment i needed."""
        if self._count is None:
            return ALL_SEGMENTS
        mask = 0
        for index in range(self._count):
            if index not in self._segments:
                mask |= 1 << index
        return mask


# ---------------------------------------------------------------------------
# the transaction core: every VMTP decision, free of I/O
# ---------------------------------------------------------------------------


class VMTPRequest(NamedTuple):
    """A complete new request, as the server core hands it to the service."""

    station: bytes
    client: int
    transaction: int
    message: bytes


class VMTPServerCore:
    """The server side of VMTP's message transactions.

    Both placements drive one: the kernel socket at interrupt level, the
    user-level :class:`VMTPServer` from its process; each keeps only its
    I/O and its cost charges.  Client identity is (station, client id),
    as ids are only unique per host — VMTP's entity identifiers.
    """

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self._assemblers: dict[tuple, MessageAssembler] = {}
        self._in_progress: dict[tuple, int] = {}
        self._responses: dict[tuple, tuple[int, list[VMTPPacket]]] = {}

    def packet_in(
        self, station: bytes, packet: VMTPPacket
    ) -> VMTPRequest | list[VMTPPacket]:
        """One arriving packet's outcome: a complete new request for the
        service, or the cached response segments to re-send (usually
        none)."""
        who = (station, packet.client)
        cached = self._responses.get(who)
        answered = cached is not None and cached[0] == packet.transaction
        if packet.kind == VMTPKind.RSPACK:
            # Only the acknowledged transaction frees the cache: a late
            # RSPACK of an older one must not drop the current response.
            if answered:
                del self._responses[who]
            return []
        if packet.kind != VMTPKind.REQUEST:
            return []
        if answered:
            # Duplicate of an answered request: re-send from the cache
            # without bothering the service (at-most-once), and only the
            # segments the retry's mask still wants.
            mask = packet.segment_mask
            return [p for p in cached[1] if mask & (1 << p.seg_index)]
        if self._in_progress.get(who) == packet.transaction:
            # Retry of a request still being served: the response is on
            # its way, so the service is not invoked again.
            return []
        key = (who, packet.transaction)
        assembler = self._assemblers.setdefault(key, MessageAssembler())
        message = assembler.add(packet)
        if message is None:
            return []
        del self._assemblers[key]
        self._in_progress[who] = packet.transaction
        return VMTPRequest(station, packet.client, packet.transaction, message)

    def respond(self, request: VMTPRequest, message: bytes) -> list[VMTPPacket]:
        """The response's segment group, cached for duplicate requests
        until the client's RSPACK frees it."""
        group = segment_message(
            VMTPKind.RESPONSE, request.client, self.server_id,
            request.transaction, message,
        )
        self._responses[(request.station, request.client)] = (
            request.transaction, group,
        )
        return group


class VMTPTransaction:
    """One client transaction: the request, and the response as it
    reassembles.  Both client placements drive one per call."""

    def __init__(
        self, client: int, server: int, transaction: int, request: bytes
    ) -> None:
        self.client = client
        self.server = server
        self.transaction = transaction
        self.request = request
        self._response = MessageAssembler()

    def request_group(self) -> list[VMTPPacket]:
        """The request's segment group.  The first send asks for the whole
        response; a retry carries the selective-retransmission mask of
        the response segments still missing."""
        return segment_message(
            VMTPKind.REQUEST, self.client, self.server, self.transaction,
            self.request, segment_mask=self._response.missing_mask(),
        )

    def wants(self, packet: VMTPPacket) -> bool:
        """A response segment of this transaction, not a stale duplicate
        from an earlier one."""
        return (
            packet.kind == VMTPKind.RESPONSE
            and packet.transaction == self.transaction
        )

    def accept(self, packet: VMTPPacket) -> bytes | None:
        """Reassemble a wanted segment; the whole response once complete."""
        return self._response.add(packet)

    def ack(self) -> VMTPPacket:
        """The RSPACK that lets the server free its cached response."""
        return VMTPPacket(
            VMTPKind.RSPACK, self.client, self.server, self.transaction,
            seg_index=0, seg_count=1, total_length=0,
        )


# ---------------------------------------------------------------------------
# packet-filter programs for VMTP endpoints
# ---------------------------------------------------------------------------


def client_filter(client_id: int) -> FilterProgram:
    """Accept RESPONSE packets addressed to this client.

    The client-id word is tested first via CAND — it is the
    discriminating field, per the figure 3-9 ordering heuristic.
    """
    expr = (
        (word(WORD_CLIENT) == client_id).likely(0.05)
        & (word(WORD_KIND).high_byte() == VMTPKind.RESPONSE << 8).likely(0.4)
        & (word(WORD_ETHERTYPE) == ETHERTYPE_VMTP).likely(0.6)
    )
    return compile_expr(expr, priority=12)


def server_filter(server_id: int) -> FilterProgram:
    """Accept REQUEST (and RSPACK) packets addressed to this server."""
    expr = (
        (word(WORD_SERVER) == server_id).likely(0.05)
        & (word(WORD_ETHERTYPE) == ETHERTYPE_VMTP).likely(0.6)
    )
    return compile_expr(expr, priority=10)


# ---------------------------------------------------------------------------
# the user-level implementation (over the packet filter)
# ---------------------------------------------------------------------------


class VMTPClient:
    """User-level VMTP client endpoint.

    Usage inside a process body::

        client = VMTPClient(host, client_id=7,
                            server_station=server.address, server_id=35)
        yield from client.start()
        response = yield from client.call(b"read /etc/motd")

    ``batching=True`` turns on received-packet batching (figure 3-5);
    table 6-4 measures exactly this knob.
    """

    def __init__(
        self,
        host,
        client_id: int,
        server_station: bytes,
        server_id: int,
        *,
        batching: bool = True,
        inbox=None,
        adaptive_rto: bool = True,
        max_retries: int = MAX_REQUEST_RETRIES,
    ) -> None:
        self.host = host
        self.client_id = client_id
        self.server_station = server_station
        self.server_id = server_id
        self.batching = batching
        self.max_retries = max_retries
        #: Jacobson-style adaptive retry timer; None keeps the
        #: historical fixed-timeout behaviour (the benchmark baseline).
        self.rto: RetransmitTimer | None = (
            RetransmitTimer(REQUEST_RETRY_TIMEOUT) if adaptive_rto else None
        )
        if self.rto is not None:
            host.kernel.publish_gauges(
                f"rto.vmtp{client_id}.", self.rto.telemetry_gauges()
            )
        self._armed_timeout = REQUEST_RETRY_TIMEOUT
        self.corrupt_dropped = 0
        #: When set (a :class:`repro.baselines.user_demux.Inbox`), receive
        #: through a user-level demultiplexing process instead of a
        #: filtered port — the table 6-5 configuration ("using an extra
        #: process to receive packets, which are then passed to the
        #: actual VMTP process via a Unix pipe").  Sends still go out a
        #: raw packet-filter port.
        self.inbox = inbox
        self.fd: int | None = None
        self._transaction = 0
        self.retries = 0

    @property
    def _costs(self) -> CostModel:
        return self.host.kernel.costs

    def start(self):
        """Open the port and bind the client's filter (a sub-generator:
        call with ``yield from``)."""
        self.fd = yield Open("pf")
        if self.inbox is not None:
            return  # receive side goes through the demux process's pipe
        yield Ioctl(self.fd, PFIoctl.SETFILTER, client_filter(self.client_id))
        yield Ioctl(self.fd, PFIoctl.SETBATCH, self.batching)
        if self.batching:
            # A batching implementation raises the input queue so a whole
            # segment group can accumulate between reads; without it, the
            # port keeps the small default and bursts overflow — the
            # "dropped packets" the paper credits for much of table 6-4.
            yield Ioctl(self.fd, PFIoctl.SETQUEUELEN, 4 * VMTP_MAX_SEGMENTS)
        self._armed_timeout = self._read_timeout()
        yield Ioctl(
            self.fd,
            PFIoctl.SETTIMEOUT,
            ReadTimeoutPolicy.after(self._armed_timeout),
        )

    def _read_timeout(self) -> float:
        return (
            self.rto.timeout if self.rto is not None
            else REQUEST_RETRY_TIMEOUT
        )

    def _rearm_timer(self):
        """Push the adaptive timeout to the port when it drifted enough
        to matter (sub-generator; no-op for the fixed baseline and for
        the inbox path, whose Select reads the timer directly)."""
        if self.inbox is not None:
            return
        if self.rto is not None and self.rto.needs_rearm(self._armed_timeout):
            self._armed_timeout = self.rto.timeout
            yield Ioctl(
                self.fd,
                PFIoctl.SETTIMEOUT,
                ReadTimeoutPolicy.after(self._armed_timeout),
            )

    def _send(self, packet: VMTPPacket):
        yield Compute(self._costs.user_transport_per_packet)
        yield Write(
            self.fd,
            self.host.link.frame(
                self.server_station, self.host.address, ETHERTYPE_VMTP,
                packet.encode(),
            ),
        )

    def call(self, request: bytes):
        """One message transaction; returns the response message.

        Implements the section 3 paradigm verbatim: "Simple programs can
        be written using a 'write; read with timeout; retry if
        necessary' paradigm."
        """
        if self.fd is None:
            raise RuntimeError("call start() first")
        self._transaction = (self._transaction + 1) & 0xFFFF
        transaction = VMTPTransaction(
            self.client_id, self.server_id, self._transaction, request
        )
        clock = self.host.kernel.scheduler

        for attempt in range(self.max_retries):
            if attempt:
                self.retries += 1
                if self.rto is not None:
                    self.rto.note_timeout()
                    yield from self._rearm_timer()
            for packet in transaction.request_group():
                yield from self._send(packet)

            # Karn: only the first attempt yields an unambiguous
            # request -> first-response-segment round-trip sample.
            sample_time = (
                clock.now if self.rto is not None and attempt == 0 else None
            )
            response = yield from self._await_response(transaction, sample_time)
            if response is not None:
                yield from self._send(transaction.ack())
                return response
        raise SimTimeout(f"no response after {self.max_retries} attempts")

    def _await_response(
        self, transaction: VMTPTransaction, sample_time: float | None
    ):
        """Collect response segments until complete or read timeout."""
        clock = self.host.kernel.scheduler
        while True:
            if self.inbox is not None:
                ready = yield Select((self.inbox.fd,), self._read_timeout())
                if not ready:
                    return None  # retry the request
                frames = [(yield from self.inbox.read())]
            else:
                try:
                    batch = yield Read(self.fd)
                except SimTimeout:
                    return None  # retry the request
                frames = [delivered.data for delivered in batch]
            for frame in frames:
                payload = self.host.link.payload_of(frame)
                yield Compute(
                    self._costs.user_transport_per_packet
                    + len(payload) / 1024.0 * self._costs.user_copy_per_kbyte
                )
                try:
                    packet = VMTPPacket.decode(payload)
                except VMTPError:
                    # Bit-flipped or truncated: the checksum trailer
                    # caught it; the retry mask re-fetches the segment.
                    self.corrupt_dropped += 1
                    self.host.kernel.account(
                        Primitive.DROP_CORRUPT, component="vmtp"
                    )
                    continue
                if not transaction.wants(packet):
                    continue
                if sample_time is not None and self.rto is not None:
                    self.rto.observe(clock.now - sample_time)
                    sample_time = None
                    yield from self._rearm_timer()
                message = transaction.accept(packet)
                if message is not None:
                    return message


class VMTPServer:
    """User-level VMTP server endpoint.

    Usage::

        server = VMTPServer(host, server_id=35)
        yield from server.start()
        while True:
            request, reply = yield from server.receive()
            yield from reply(handle(request))

    Duplicate requests for the last completed transaction retransmit the
    cached response instead of re-invoking the service — VMTP's
    at-most-once transaction behaviour (decided by a
    :class:`VMTPServerCore`), and a supply of the "duplicate packets"
    figure 2-3 talks about.
    """

    def __init__(self, host, server_id: int, *, batching: bool = True) -> None:
        self.host = host
        self.server_id = server_id
        self.batching = batching
        self.fd: int | None = None
        self.transactions = VMTPServerCore(server_id)
        self.corrupt_dropped = 0

    @property
    def _costs(self) -> CostModel:
        return self.host.kernel.costs

    def start(self):
        self.fd = yield Open("pf")
        yield Ioctl(self.fd, PFIoctl.SETFILTER, server_filter(self.server_id))
        yield Ioctl(self.fd, PFIoctl.SETBATCH, self.batching)

    def receive(self):
        """Wait for one complete request; returns ``(request, reply)``
        where ``reply(message)`` is a sub-generator that sends the
        response group."""
        if self.fd is None:
            raise RuntimeError("call start() first")
        while True:
            batch = yield Read(self.fd)
            for delivered in batch:
                payload = self.host.link.payload_of(delivered.data)
                yield Compute(
                    self._costs.user_transport_per_packet
                    + len(payload) / 1024.0 * self._costs.user_copy_per_kbyte
                )
                try:
                    packet = VMTPPacket.decode(payload)
                except VMTPError:
                    # Damaged request segment: drop; the client's retry
                    # (selective mask) resends it.
                    self.corrupt_dropped += 1
                    self.host.kernel.account(
                        Primitive.DROP_CORRUPT, component="vmtp"
                    )
                    continue
                station = self.host.link.source_of(delivered.data)
                outcome = self.transactions.packet_in(station, packet)
                if isinstance(outcome, VMTPRequest):
                    return outcome.message, self._make_reply(outcome)
                yield from self._send_group(station, outcome)

    def _make_reply(self, request: VMTPRequest):
        def reply(message: bytes):
            group = self.transactions.respond(request, message)
            yield from self._send_group(request.station, group)

        return reply

    def _send_group(self, station: bytes, group: list[VMTPPacket]):
        frames = []
        for packet in group:
            yield Compute(self._costs.user_transport_per_packet)
            frames.append(
                self.host.link.frame(
                    station, self.host.address, ETHERTYPE_VMTP, packet.encode()
                )
            )
        for frame in frames:
            yield Write(self.fd, frame)
