"""Kernel-resident UDP — the datagram baseline of table 6-1.

Registers the ``"udp"`` device; a process opens it, BINDs a local port,
CONNECTs to a peer, then writes datagrams and reads datagrams.  The send
path charges the table 6-1 calibrated socket/route overhead that the
packet filter's raw write avoids ("it does not need to choose a route
for the datagram or compute a checksum" — §6.1); checksumming is off by
default because that is the variant the paper measured.
"""

from __future__ import annotations

from ..protocols.ip import IP_MIN_HEADER, PROTO_UDP
from ..protocols.udp import UDP_HEADER_BYTES, UDPError, UDPHeader
from ..sim.errors import InvalidArgument
from ..sim.kernel import DeviceDriver, SimKernel
from ..sim.ledger import Primitive
from ..sim.process import Ioctl, Process
from .ipstack import KernelNetworkStack
from .sockets import BufferedSocketHandle, PortTable, SockIoctl, checked_ip_peer

__all__ = ["KernelUDP"]


class KernelUDP(DeviceDriver):
    """The UDP protocol module + its socket device."""

    def __init__(self, stack: KernelNetworkStack, device_name: str = "udp") -> None:
        self.stack = stack
        self.kernel = stack.kernel
        self.ports = PortTable("UDP", 1024)
        stack.register_transport(PROTO_UDP, self._udp_input)
        self.kernel.register_device(device_name, self)

    def open(self, kernel: SimKernel, process: Process) -> "UDPSocketHandle":
        return UDPSocketHandle(self)

    # -- input (interrupt level, below the IP layer's 0.49 ms) -------------------

    def _udp_input(self, ip_header, payload: bytes) -> None:
        self.kernel.account(
            Primitive.TRANSPORT_INPUT,
            self.kernel.costs.transport_input,
            component="udp",
        )
        try:
            header, data = UDPHeader.decode(payload)
        except UDPError:
            return
        if header.with_checksum:
            self.kernel.account(
                Primitive.CHECKSUM,
                len(payload) / 1024.0 * self.kernel.costs.checksum_per_kbyte,
                quantity=len(payload),
                component="udp",
            )
        handle = self.ports.get(header.dst_port)
        if handle is not None:
            handle._deposit(data)


class UDPSocketHandle(BufferedSocketHandle):
    """One UDP socket: a bound port plus an optional connected peer."""

    def __init__(self, protocol: KernelUDP) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.local_port: int | None = None
        self.peer: tuple[int, int] | None = None   # (ip, port)
        self.with_checksum = False
        link = protocol.stack.host.link
        self.max_write = (
            link.max_frame_bytes - link.header_length
            - IP_MIN_HEADER - UDP_HEADER_BYTES
        )

    # -- control --------------------------------------------------------------

    def ioctl(self, process: Process, call: Ioctl) -> None:
        if call.command == SockIoctl.BIND:
            self.local_port = self.protocol.ports.bind(self, call.argument)
            self.kernel.complete(process, self.local_port)
        elif call.command == SockIoctl.CONNECT:
            self.peer = checked_ip_peer(self.protocol.stack, call.argument)
            if self.local_port is None:
                self.local_port = self.protocol.ports.bind(self, None)
            self.kernel.complete(process, None)
        elif call.command == SockIoctl.SET_CHECKSUM:
            self.with_checksum = bool(call.argument)
            self.kernel.complete(process, None)
        else:
            raise InvalidArgument(f"unsupported UDP ioctl {call.command!r}")

    # -- data ---------------------------------------------------------------------

    def _write(self, process: Process, data: bytes) -> None:
        if self.peer is None:
            raise InvalidArgument("UDP socket is not connected")
        if self.local_port is None:
            self.local_port = self.protocol.ports.bind(self, None)
        kernel = self.kernel
        kernel.charge_copy(len(data), component="udp")      # user -> kernel
        kernel.account(                                     # socket + route
            Primitive.UDP_SEND_OVERHEAD,
            kernel.costs.udp_send_overhead,
            component="udp",
        )
        if self.with_checksum:
            kernel.account(
                Primitive.CHECKSUM,
                len(data) / 1024.0 * kernel.costs.checksum_per_kbyte,
                quantity=len(data),
                component="udp",
            )
        header = UDPHeader(
            src_port=self.local_port,
            dst_port=self.peer[1],
            with_checksum=self.with_checksum,
        )
        self.protocol.stack.send(self.peer[0], PROTO_UDP, header.encode(data))
        kernel.complete(process, len(data))

    def close(self, process: Process) -> None:
        self.protocol.ports.release(self.local_port)
        self.local_port = None
