"""BSP — the Pup Byte Stream Protocol, entirely at user level (§5.1/§6.4).

The paper's table 6-6 compares "a Pup/BSP implementation using the
packet filter" against kernel TCP.  This is that implementation: a
windowed, acknowledged, retransmitting byte stream built from Pup
packets, running in ordinary user processes whose only privilege is a
packet-filter port.

Protocol shape (a faithful simplification of Stanford's BSP):

* data travels in ``BSP_DATA`` Pups of at most 532 data bytes — the
  "maximum packet size of 568 bytes" of §6.4 once framed;
* the 32-bit Pup *identifier* field carries the byte sequence number;
* the receiver acknowledges every in-order arrival with a ``BSP_ACK``
  whose identifier is the next expected byte (go-back-N: out-of-order
  data just re-asserts the current position);
* the sender keeps a byte window open and retransmits from the
  unacknowledged mark on timeout;
* the stream ends with a ``BSP_END`` that consumes one sequence number
  and is acknowledged like data.

Each endpoint's receive filter is exactly the figure 3-9 program — test
the (unlikely) destination-socket words first with CAND, the packet
type last — generalized over the link type, since BSP measurements ran
on the 10 Mb/s Ethernet where the Pup header sits 7 words in.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ioctl import PFIoctl
from ..core.port import ReadTimeoutPolicy
from ..core.program import FilterProgram, asm
from ..net.ethernet import LinkSpec
from ..sim.errors import SimTimeout
from ..sim.ledger import Primitive
from ..sim.process import Compute, Ioctl, Open, Read, Write
from .ethertypes import ETHERTYPE_PUP_3MB, ETHERTYPE_PUP_10MB
from .pup import (
    PUP_MAX_DATA,
    PupAddress,
    PupError,
    PupHeader,
    encode_pup,
    pup_word_base,
)
from .rto import MAX_TIMEOUT, RetransmitTimer

__all__ = [
    "BSP_DATA",
    "BSP_ACK",
    "BSP_END",
    "bsp_socket_filter",
    "pup_ethertype",
    "BSPEndpoint",
    "StreamStats",
]

BSP_DATA = 0o20   #: data Pup; identifier = byte sequence number
BSP_ACK = 0o23    #: ack Pup; identifier = next byte expected
BSP_END = 0o31    #: end-of-stream marker; consumes one sequence number

WINDOW_PACKETS = 4
RETRANSMIT_TIMEOUT = 0.2
"""Initial retransmission timeout.  It only seeds the
:class:`~repro.protocols.rto.RetransmitTimer`, which then tracks the
measured round trip."""
MAX_RETRIES = 10


def pup_ethertype(link: LinkSpec) -> int:
    """Pup's data-link type value on this link."""
    return ETHERTYPE_PUP_3MB if link.address_length == 1 else ETHERTYPE_PUP_10MB


def bsp_socket_filter(link: LinkSpec, socket: int) -> FilterProgram:
    """The figure 3-9 filter generalized: accept Pups for ``socket``.

    Socket-low word first (CAND), socket-high second (CAND), packet
    type last (EQ) — the paper's exact ordering rationale: "in most
    packets the DstSocket is likely not to match and so the
    short-circuit operation will exit immediately."
    """
    base = pup_word_base(link)
    ether_word = base - 1
    low = socket & 0xFFFF
    high = (socket >> 16) & 0xFFFF
    return FilterProgram(
        asm(
            ("PUSHWORD", base + 6), ("PUSHLIT", "CAND", low),
            ("PUSHWORD", base + 5), ("PUSHLIT", "CAND", high),
            ("PUSHWORD", ether_word), ("PUSHLIT", "EQ", pup_ethertype(link)),
        ),
        priority=10,
    )


@dataclass
class StreamStats:
    """Transfer accounting for one direction of a BSP stream."""

    data_packets_sent: int = 0
    data_packets_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    retransmissions: int = 0   #: timeout-triggered go-back-N events
    duplicates_dropped: int = 0
    corrupt_dropped: int = 0   #: packets rejected by the Pup checksum
    bytes_delivered: int = 0


class BSPEndpoint:
    """One BSP endpoint (one Pup socket on one host).

    Sub-generator API, used inside process bodies::

        endpoint = BSPEndpoint(host, local_socket=44)
        yield from endpoint.start()
        yield from endpoint.send_stream(dst_station, dst_address, data)
        # or, on the other side:
        data = yield from endpoint.recv_all()
    """

    def __init__(
        self,
        host,
        local_socket: int,
        *,
        data_per_packet: int = PUP_MAX_DATA,
        max_retries: int = MAX_RETRIES,
    ) -> None:
        if not 1 <= data_per_packet <= PUP_MAX_DATA:
            raise ValueError("data_per_packet outside 1..532")
        self.host = host
        self.local_socket = local_socket
        #: This endpoint's Pup address (host byte from the station).
        self.address = PupAddress(
            net=1, host=host.address[-1], socket=local_socket
        )
        self._ethertype = pup_ethertype(host.link)
        self.window_bytes = WINDOW_PACKETS * data_per_packet
        self.data_per_packet = data_per_packet
        self.max_retries = max_retries
        #: Jacobson-style adaptive retransmission timer.
        self.rto = RetransmitTimer(RETRANSMIT_TIMEOUT)
        host.kernel.publish_gauges(
            f"rto.bsp{local_socket:#x}.", self.rto.telemetry_gauges()
        )
        self._armed_timeout = self.rto.timeout
        self.fd: int | None = None
        self.stats = StreamStats()
        # receiver state
        self._rcv_next = 0
        self._chunks: list[bytes] = []
        self._ended = False

    @property
    def _costs(self):
        return self.host.kernel.costs

    def start(self):
        """Open the PF port and bind the socket filter (yield from)."""
        self.fd = yield Open("pf")
        yield Ioctl(
            self.fd,
            PFIoctl.SETFILTER,
            bsp_socket_filter(self.host.link, self.local_socket),
        )
        yield Ioctl(self.fd, PFIoctl.SETBATCH, True)
        yield Ioctl(
            self.fd, PFIoctl.SETTIMEOUT,
            ReadTimeoutPolicy.after(self._armed_timeout),
        )

    def _rearm_timer(self):
        """Push the adaptive timeout to the port when it drifted enough
        to matter (sub-generator)."""
        if self.rto.needs_rearm(self._armed_timeout):
            self._armed_timeout = self.rto.timeout
            yield Ioctl(
                self.fd, PFIoctl.SETTIMEOUT,
                ReadTimeoutPolicy.after(self._armed_timeout),
            )

    # ------------------------------------------------------------------
    # packet plumbing
    # ------------------------------------------------------------------

    def _pup_frame(
        self,
        station: bytes,
        dst: PupAddress,
        pup_type: int,
        identifier: int,
        data: bytes = b"",
    ) -> bytes:
        return self.host.link.frame(
            station,
            self.host.address,
            self._ethertype,
            encode_pup(
                pup_type, identifier, dst, self.address, data,
                with_checksum=True,
            ),
        )

    # ------------------------------------------------------------------
    # sending side
    # ------------------------------------------------------------------

    def send_stream(
        self,
        station: bytes,
        dst: PupAddress,
        data: bytes,
        *,
        disk_ms_per_kbyte: float = 0.0,
    ):
        """Transmit ``data`` reliably to the peer endpoint (yield from).

        ``disk_ms_per_kbyte`` > 0 models an FTP-style synchronous file
        source: each packet's worth of data costs a blocking disk read
        before it can be sent (the §6.4 file-transfer variant).
        """
        if self.fd is None:
            raise RuntimeError("call start() first")
        from ..sim.process import Sleep
        clock = self.host.kernel.scheduler
        una = 0            # lowest unacknowledged byte
        nxt = 0            # next byte to transmit
        read_mark = 0      # bytes already read from the (disk) source
        end_seq = len(data)        # END consumes sequence number end_seq
        done_seq = end_seq + 1     # ack that finishes the stream
        end_sent_at_una = -1
        retries = 0
        # One RTT sample in flight at a time: the ack covering byte
        # ``sample_seq`` timestamps the round trip.  Invalidated on any
        # retransmission (Karn's algorithm).
        sample_seq: int | None = None
        sample_time = 0.0

        while una < done_seq:
            # Fill the window.
            while nxt < len(data) and nxt - una < self.window_bytes:
                chunk = data[nxt : nxt + self.data_per_packet]
                if disk_ms_per_kbyte and nxt + len(chunk) > read_mark:
                    # Fresh data (not a retransmission): read it from
                    # the (synchronous) file system first.
                    yield Sleep(disk_ms_per_kbyte * 1e-3 * len(chunk) / 1024.0)
                    read_mark = nxt + len(chunk)
                yield Compute(self._costs.user_transport_per_packet)
                yield Write(
                    self.fd,
                    self._pup_frame(station, dst, BSP_DATA, nxt, chunk),
                )
                self.stats.data_packets_sent += 1
                nxt += len(chunk)
                if sample_seq is None:
                    sample_seq = nxt
                    sample_time = clock.now
            if nxt >= len(data) and una >= len(data) and end_sent_at_una != una:
                yield Compute(self._costs.user_transport_per_packet)
                yield Write(
                    self.fd, self._pup_frame(station, dst, BSP_END, end_seq)
                )
                end_sent_at_una = una
                if sample_seq is None:
                    sample_seq = done_seq
                    sample_time = clock.now

            # Collect acknowledgements (read with timeout; retry if
            # necessary — the section 3 paradigm).
            try:
                batch = yield Read(self.fd)
            except SimTimeout:
                retries += 1
                if retries > self.max_retries:
                    raise SimTimeout("BSP stream abandoned: no acks")
                nxt = una           # go-back-N
                end_sent_at_una = -1
                self.stats.retransmissions += 1
                self.rto.note_timeout()
                sample_seq = None     # Karn: ambiguous from here on
                yield from self._rearm_timer()
                continue
            for delivered in batch:
                yield Compute(self._costs.user_transport_per_packet)
                try:
                    header, _ = PupHeader.decode(
                        self.host.link.payload_of(delivered.data)
                    )
                except PupError:
                    self.stats.corrupt_dropped += 1
                    self.host.kernel.account(
                        Primitive.DROP_CORRUPT, component="bsp"
                    )
                    continue
                if header.pup_type != BSP_ACK:
                    continue
                if header.identifier > una:
                    una = header.identifier
                    retries = 0
                    self.stats.acks_received += 1
                    if sample_seq is not None and una >= sample_seq:
                        self.rto.observe(clock.now - sample_time)
                        sample_seq = None
                        yield from self._rearm_timer()

    # ------------------------------------------------------------------
    # receiving side
    # ------------------------------------------------------------------

    def recv_some(self):
        """Wait for the next in-order data chunk (yield from).

        Returns ``None`` once the stream has ended — the incremental
        interface the Telnet display loop needs.
        """
        if self.fd is None:
            raise RuntimeError("call start() first")
        while True:
            if self._chunks:
                chunk = self._chunks.pop(0)
                self.stats.bytes_delivered += len(chunk)
                return chunk
            if self._ended:
                return None
            try:
                batch = yield Read(self.fd)
            except SimTimeout:
                continue
            for delivered in batch:
                yield from self._ingest(delivered.data)

    def recv_all(self):
        """Collect the whole stream until END (yield from)."""
        parts: list[bytes] = []
        while True:
            chunk = yield from self.recv_some()
            if chunk is None:
                return b"".join(parts)
            parts.append(chunk)

    def linger(self):
        """Dally after the stream ends, re-acking retransmitted ENDs
        (yield from) — Pup BSP's dally period, TCP's TIME_WAIT.

        The final ack can be lost like any other packet; a receiver
        that closes the moment END arrives leaves the sender
        retransmitting into a deaf port until its retry budget aborts
        the stream.  The sender retransmits END at most ``max_retries + 1``
        times in a row, each at most :data:`~repro.protocols.rto.MAX_TIMEOUT`
        after the last, so stay subscribed until that many such windows
        pass in silence: by then the peer has its ack or has given up.
        Both ends are assumed to share one retry budget.
        """
        yield Ioctl(
            self.fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(MAX_TIMEOUT)
        )
        silent = 0
        while silent <= self.max_retries:
            try:
                batch = yield Read(self.fd)
            except SimTimeout:
                silent += 1
                continue
            silent = 0
            for delivered in batch:
                yield from self._ingest(delivered.data)

    def _ingest(self, frame: bytes):
        costs = self._costs
        payload = self.host.link.payload_of(frame)
        yield Compute(
            costs.user_transport_per_packet
            + len(payload) / 1024.0 * costs.user_copy_per_kbyte
        )
        try:
            header, data = PupHeader.decode(payload)
        except PupError:
            # Truncated or checksum-rejected (bit-flipped) packet: drop
            # it; the sender's retransmission carries the clean copy.
            self.stats.corrupt_dropped += 1
            self.host.kernel.account(Primitive.DROP_CORRUPT, component="bsp")
            return
        station = self.host.link.source_of(frame)

        if header.pup_type == BSP_DATA:
            if header.identifier == self._rcv_next:
                self._rcv_next += len(data)
                self._chunks.append(data)
                self.stats.data_packets_received += 1
            else:
                self.stats.duplicates_dropped += 1
            yield from self._send_ack(station, header.src)
        elif header.pup_type == BSP_END:
            if header.identifier == self._rcv_next:
                self._rcv_next += 1
                self._ended = True
            yield from self._send_ack(station, header.src)

    def _send_ack(self, station: bytes, dst: PupAddress):
        yield Compute(self._costs.user_transport_per_packet)
        yield Write(
            self.fd, self._pup_frame(station, dst, BSP_ACK, self._rcv_next)
        )
        self.stats.acks_sent += 1
