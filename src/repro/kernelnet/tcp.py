"""Kernel-resident TCP — the stream baseline of tables 6-3, 6-6, 6-7.

A deliberately compact but *real* sliding-window TCP: three-way
handshake, cumulative acknowledgements, receiver-advertised flow
control, in-order reassembly with an out-of-order buffer, retransmission
on timeout, and FIN teardown.  It moves actual bytes: the protocol tests
assert the received stream equals the sent stream under injected loss,
duplication and reordering.

Where it is simpler than 4.3BSD TCP, the simplification is invisible to
the paper's measurements: no congestion control (one Ethernet, no
routers), no delayed ACKs (the paper's per-packet accounting assumes an
ACK per data packet — figure 2-3's "far more packets are exchanged at
lower levels than are seen at higher levels"), fixed RTO.

Cost shape per §6.1/§6.3: every received segment charges IP input
(0.49 ms, in the IP layer) plus transport input (to 1.77 ms total), and
"TCP checksums all data" — checksum cost is charged on both paths,
which is exactly why unchecksummed VMTP beats TCP in table 6-3.

The default MSS of 1024 bytes yields the paper's 1078-byte packets;
``SockIoctl.SET_MSS`` with 514 reproduces the "TCP forced to use the
smaller [568-byte] packet size" experiment of §6.4.
"""

from __future__ import annotations

import enum
from ..protocols.ip import IP_MIN_HEADER, PROTO_TCP
from ..protocols.tcp import (
    DEFAULT_MSS,
    TCP_HEADER_BYTES,
    TCPError,
    TCPFlags,
    TCPSegment,
)
from ..sim.errors import InvalidArgument, SimTimeout
from ..sim.kernel import DeviceDriver, SimKernel, WaitQueue
from ..sim.ledger import Primitive
from ..sim.process import Ioctl, Process
from .ipstack import KernelNetworkStack
from .sockets import (
    BufferedSocketHandle,
    PortTable,
    SockIoctl,
    StreamReadMixin,
    checked_int,
    checked_ip_peer,
)

__all__ = ["KernelTCP", "TCPSocketHandle"]

SEND_BUFFER_LIMIT = 8192
RECEIVE_WINDOW = 4096
RETRANSMIT_TIMEOUT = 0.2
MAX_RETRANSMITS = 8
OUT_OF_ORDER_LIMIT = 64


class TCPState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"


class KernelTCP(DeviceDriver):
    """The TCP protocol module + its socket device."""

    def __init__(self, stack: KernelNetworkStack) -> None:
        self.stack = stack
        self.kernel = stack.kernel
        self.ports = PortTable("TCP", 2048)
        self._next_iss = 100
        stack.register_transport(PROTO_TCP, self._tcp_input)
        self.kernel.register_device("tcp", self)

    def open(self, kernel: SimKernel, process: Process) -> "TCPSocketHandle":
        return TCPSocketHandle(self)

    def issue_iss(self) -> int:
        """Deterministic initial sequence numbers keep runs replayable."""
        self._next_iss += 1000
        return self._next_iss

    def _tcp_input(self, ip_header, payload: bytes) -> None:
        costs = self.kernel.costs
        self.kernel.account(
            Primitive.TRANSPORT_INPUT, costs.transport_input, component="tcp"
        )
        self.kernel.account(
            Primitive.CHECKSUM,
            len(payload) / 1024.0 * costs.checksum_per_kbyte,
            quantity=len(payload),
            component="tcp",
        )
        try:
            segment = TCPSegment.decode(payload)
        except TCPError:
            return
        handle = self.ports.get(segment.dst_port)
        if handle is not None:
            handle.segment_arrived(ip_header.src, segment)


class TCPSocketHandle(StreamReadMixin, BufferedSocketHandle):
    """One TCP endpoint (a listening socket becomes the connection —
    one connection per socket, which is all the evaluation needs)."""

    def __init__(self, protocol: KernelTCP) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.state = TCPState.CLOSED
        self.local_port: int | None = None
        self.peer: tuple[int, int] | None = None  # (ip, port)
        self.mss = DEFAULT_MSS

        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.peer_window = RECEIVE_WINDOW
        self._send_queue = bytearray()          # not yet segmented
        self._inflight: list[tuple[int, bytes, TCPFlags]] = []
        self._writers = WaitQueue(protocol.kernel)
        self._connector: Process | None = None
        self._retransmit_event = None
        self._retransmit_count = 0
        self._ooo: dict[int, TCPSegment] = {}
        self._fin_pending = False
        self._window_was_closed = False
        self._release_when_drained = False

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------

    def ioctl(self, process: Process, call: Ioctl) -> None:
        if call.command == SockIoctl.BIND:
            self.local_port = self.protocol.ports.bind(self, call.argument)
            self.state = TCPState.LISTEN
            self.kernel.complete(process, self.local_port)
        elif call.command == SockIoctl.CONNECT:
            self._connect(process, call.argument)
        elif call.command == SockIoctl.SET_MSS:
            link = self.protocol.stack.host.link
            self.mss = checked_int(
                call.argument,
                1,
                link.max_frame_bytes - link.header_length
                - IP_MIN_HEADER - TCP_HEADER_BYTES,
                "MSS",
            )
            self.kernel.complete(process, None)
        else:
            raise InvalidArgument(f"unsupported TCP ioctl {call.command!r}")

    def _connect(self, process: Process, peer) -> None:
        if self.state is not TCPState.CLOSED:
            raise InvalidArgument("socket is not closed")
        self.peer = checked_ip_peer(self.protocol.stack, peer)
        if self.local_port is None:
            self.local_port = self.protocol.ports.bind(self, None)
        iss = self.protocol.issue_iss()
        self.snd_una = iss
        self.snd_nxt = iss + 1
        self.state = TCPState.SYN_SENT
        self._connector = process  # completed when ESTABLISHED
        self._transmit(iss, b"", TCPFlags.SYN, track=True)

    # ------------------------------------------------------------------
    # user data path
    # ------------------------------------------------------------------

    def _write(self, process: Process, data: bytes) -> None:
        if self.state is not TCPState.ESTABLISHED:
            raise InvalidArgument(f"socket is {self.state.value}, not established")
        if len(self._send_queue) + len(data) > SEND_BUFFER_LIMIT and self._send_queue:
            self._writers.block(process, lambda proc: self._write(proc, data))
            return
        self.kernel.charge_copy(len(data), component="tcp")  # user -> buffer
        self._send_queue.extend(data)
        self._pump()
        self.kernel.complete(process, len(data))

    def _after_read(self) -> None:
        # Receiver window reopened: tell a stalled sender (window update).
        if self._window_was_closed and self.state is TCPState.ESTABLISHED:
            self._window_was_closed = False
            self._send_ack()

    def _advertised_window(self) -> int:
        free = max(0, RECEIVE_WINDOW - self.buffered_bytes)
        if free < self.mss:
            self._window_was_closed = True
        return free

    # ------------------------------------------------------------------
    # segment transmission
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Send while the peer's window has room (sliding window)."""
        while self._send_queue:
            inflight_bytes = self.snd_nxt - self.snd_una
            room = self.peer_window - inflight_bytes
            if room < min(self.mss, len(self._send_queue)):
                if not self._inflight:
                    # Only the peer's window update can restart us, and
                    # it may be lost: persist, probing on the timer.
                    self._arm_retransmit()
                return
            self._send_data(self.mss)
        if self._fin_pending and not self._send_queue:
            self._fin_pending = False
            seq = self.snd_nxt
            self.snd_nxt += 1
            self.state = TCPState.FIN_SENT
            self._transmit(seq, b"", TCPFlags.FIN | TCPFlags.ACK, track=True)

    def _send_data(self, size: int) -> None:
        chunk = bytes(self._send_queue[:size])
        del self._send_queue[: len(chunk)]
        seq = self.snd_nxt
        self.snd_nxt += len(chunk)
        self._transmit(seq, chunk, TCPFlags.ACK | TCPFlags.PSH, track=True)

    def _transmit(
        self, seq: int, payload: bytes, flags: TCPFlags, *, track: bool
    ) -> None:
        costs = self.kernel.costs
        self.kernel.account(
            Primitive.TRANSPORT_OUTPUT, costs.transport_output, component="tcp"
        )
        self.kernel.account(
            Primitive.CHECKSUM,
            len(payload) / 1024.0 * costs.checksum_per_kbyte,
            quantity=len(payload),
            component="tcp",
        )
        segment = TCPSegment(
            src_port=self.local_port or 0,
            dst_port=self.peer[1],
            seq=seq,
            ack=self.rcv_nxt,
            flags=flags,
            window=self._advertised_window(),
            payload=payload,
        )
        self.protocol.stack.send(self.peer[0], PROTO_TCP, segment.encode())
        if track:
            self._inflight.append((seq, payload, flags))
            self._arm_retransmit()

    def _send_ack(self) -> None:
        self._transmit(self.snd_nxt, b"", TCPFlags.ACK, track=False)

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------

    def _arm_retransmit(self) -> None:
        if self._retransmit_event is None:
            self._retransmit_event = self.kernel.scheduler.schedule(
                RETRANSMIT_TIMEOUT, self._retransmit_fire
            )

    def _cancel_retransmit(self) -> None:
        if self._retransmit_event is not None:
            self._retransmit_event.cancel()
            self._retransmit_event = None
        self._retransmit_count = 0

    def _retransmit_fire(self) -> None:
        self._retransmit_event = None
        if self.state is TCPState.CLOSED:
            return
        if not self._inflight:
            if self._send_queue:
                # Zero-window probe: one byte past the closed window;
                # its ACK carries the peer's current window.
                self._send_data(1)
            return
        self._retransmit_count += 1
        if self._retransmit_count > MAX_RETRANSMITS:
            self._abort(SimTimeout("TCP retransmission limit reached"))
            return
        seq, payload, flags = self._inflight[0]
        self._transmit(seq, payload, flags, track=False)
        self._arm_retransmit()

    def _abort(self, error: SimTimeout) -> None:
        self.state = TCPState.CLOSED
        if self._connector is not None:
            connector, self._connector = self._connector, None
            self.kernel.fail(connector, error)
        self._mark_eof()

    # ------------------------------------------------------------------
    # segment arrival (interrupt level)
    # ------------------------------------------------------------------

    def segment_arrived(self, src_ip: int, segment: TCPSegment) -> None:
        if self.state is TCPState.LISTEN:
            if not segment.is_syn:
                return
            self.peer = (src_ip, segment.src_port)
            self.rcv_nxt = segment.seq + 1
            iss = self.protocol.issue_iss()
            self.snd_una = iss
            self.snd_nxt = iss + 1
            self.state = TCPState.SYN_RCVD
            self._transmit(iss, b"", TCPFlags.SYN | TCPFlags.ACK, track=True)
            return

        if self.peer is None or (src_ip, segment.src_port) != self.peer:
            return  # stray segment for some other conversation

        if segment.is_ack:
            self._process_ack(segment)
        if segment.is_syn and self.state is TCPState.SYN_SENT:
            # SYN-ACK: complete the three-way handshake.
            self.rcv_nxt = segment.seq + 1
            self.state = TCPState.ESTABLISHED
            self._send_ack()
            if self._connector is not None:
                connector, self._connector = self._connector, None
                self.kernel.complete(connector, None)
            return

        if segment.payload or segment.is_fin:
            self._process_data(segment)

    def _process_ack(self, segment: TCPSegment) -> None:
        ack = segment.ack
        self.peer_window = segment.window
        if ack > self.snd_una:
            self.snd_una = ack
            self._inflight = [
                (seq, payload, flags)
                for seq, payload, flags in self._inflight
                if seq + max(1, len(payload)) > ack
            ]
            self._cancel_retransmit()
            if self._inflight:
                self._arm_retransmit()
            if self.state is TCPState.SYN_RCVD:
                self.state = TCPState.ESTABLISHED
            self._writers.wake_all()
        elif not self._inflight:
            self._cancel_retransmit()  # a window update ends persisting
        self._pump()
        fully_drained = (
            not self._inflight
            and not self._send_queue
            and not self._fin_pending
        )
        if self._release_when_drained and fully_drained:
            self.protocol.ports.release(self.local_port)
            self.local_port = None
            self._release_when_drained = False

    def _process_data(self, segment: TCPSegment) -> None:
        if segment.seq == self.rcv_nxt:
            self._accept_in_order(segment)
            # Drain any out-of-order segments this unblocked.
            while self.rcv_nxt in self._ooo:
                self._accept_in_order(self._ooo.pop(self.rcv_nxt))
        elif segment.seq > self.rcv_nxt:
            if len(self._ooo) < OUT_OF_ORDER_LIMIT:
                self._ooo.setdefault(segment.seq, segment)
        # Duplicates (seq < rcv_nxt) fall through: ack repeats our state.
        self._send_ack()

    def _accept_in_order(self, segment: TCPSegment) -> None:
        if segment.payload:
            self.rcv_nxt += len(segment.payload)
            self._deposit(segment.payload)
        if segment.is_fin:
            self.rcv_nxt += 1
            self._mark_eof()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def close(self, process: Process) -> None:
        if self.state is TCPState.ESTABLISHED:
            self._fin_pending = True
            self._pump()
            # The port stays bound until everything in flight (data +
            # FIN) is acknowledged, so teardown completes cleanly.
            self._release_when_drained = True
            return
        if self.state in (TCPState.LISTEN, TCPState.SYN_SENT):
            self.state = TCPState.CLOSED
        self.protocol.ports.release(self.local_port)
        self.local_port = None
