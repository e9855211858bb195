"""Kernel-resident VMTP — the other half of the table 6-2/6-3 comparison.

"Although there is a kernel-resident implementation of VMTP for 4.3BSD,
the first implementation used the packet filter."  This module is that
kernel-resident implementation.  It drives the same transaction core as
the user-level one in :mod:`repro.protocols.vmtp` (shared wire format,
segment groups, duplicate suppression, response cache and RSPACK rule),
so it exchanges the *same* packets and the measured difference between
them is *where the code runs*:

* all protocol processing (segmentation, reassembly, duplicate
  suppression, retransmission) happens at interrupt level or in the
  syscall path — charged as kernel transport costs, with no
  per-packet context switches or extra copies;
* the user process crosses into the kernel exactly twice per
  transaction on each side (one write, one read), however many packets
  the message needed — figure 2-3's point about kernel residency
  confining overhead packets.

The one placement difference beyond that is the request-retry *timer*:
a fixed :data:`~repro.protocols.vmtp.REQUEST_RETRY_TIMEOUT` here, a
Jacobson adaptive timer in the user-level client.  Loss-free table rows
never retry, so they cannot see it.
"""

from __future__ import annotations

from ..protocols.ethertypes import ETHERTYPE_VMTP
from ..protocols.vmtp import (
    MAX_REQUEST_RETRIES,
    REQUEST_RETRY_TIMEOUT,
    VMTP_MAX_MESSAGE_BYTES,
    VMTPError,
    VMTPKind,
    VMTPPacket,
    VMTPRequest,
    VMTPServerCore,
    VMTPTransaction,
)
from ..sim.errors import InvalidArgument, SimTimeout
from ..sim.host import Host
from ..sim.kernel import DeviceDriver, DeviceHandle, SimKernel
from ..sim.ledger import Primitive
from ..sim.process import Ioctl, Process
from .sockets import (
    BufferedSocketHandle,
    SockIoctl,
    checked_int,
    checked_station_peer,
)

__all__ = ["KernelVMTP"]


class KernelVMTP(DeviceDriver):
    """The kernel VMTP module + its ``"vmtp"`` socket device."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.kernel: SimKernel = host.kernel
        self._clients: dict[int, VMTPClientHandle] = {}
        self._servers: dict[int, VMTPServerHandle] = {}
        self._next_client_id = 1
        self.kernel.register_ethertype(ETHERTYPE_VMTP, self._input)
        self.kernel.register_device("vmtp", self)

    def open(self, kernel: SimKernel, process: Process) -> "VMTPRoleHandle":
        return VMTPRoleHandle(self)

    # -- registration -------------------------------------------------------

    def new_client(self, handle: "VMTPClientHandle") -> int:
        client_id = self._next_client_id
        self._next_client_id += 1
        self._clients[client_id] = handle
        return client_id

    def bind_server(self, server_id: int, handle: "VMTPServerHandle") -> None:
        if server_id in self._servers:
            raise InvalidArgument(f"VMTP server id {server_id} is in use")
        self._servers[server_id] = handle

    # -- interrupt-level input -----------------------------------------------

    def _input(self, nic, frame: bytes) -> None:
        self.kernel.account(
            Primitive.TRANSPORT_INPUT,
            self.kernel.costs.transport_input,
            component="vmtp",
        )
        try:
            packet = VMTPPacket.decode(self.host.link.payload_of(frame))
        except VMTPError:
            return
        station = self.host.link.source_of(frame)
        if packet.kind == VMTPKind.RESPONSE:
            endpoint = self._clients.get(packet.client)
        else:  # REQUEST or RSPACK go to the server
            endpoint = self._servers.get(packet.server)
        if endpoint is not None:
            endpoint.packet_arrived(station, packet)

    # -- output helper (kernel context) ------------------------------------------

    def send_packet(self, station: bytes, packet: VMTPPacket) -> None:
        self.kernel.account(
            Primitive.TRANSPORT_OUTPUT,
            self.kernel.costs.transport_output,
            component="vmtp",
        )
        frame = self.host.link.frame(
            station, self.host.address, ETHERTYPE_VMTP, packet.encode()
        )
        self.kernel.network_output(self.host.nic, frame)


class VMTPRoleHandle(DeviceHandle):
    """A freshly opened VMTP socket, before its role is chosen.

    BIND makes it a server; CONNECT makes it a client.  The role's
    handle then takes this one's place in the descriptor table, which
    keeps each role's logic in its own class; until then, reads and
    writes fail.
    """

    def __init__(self, protocol: KernelVMTP) -> None:
        self.protocol = protocol

    def ioctl(self, process: Process, call: Ioctl) -> None:
        if call.command == SockIoctl.BIND:
            server_id = checked_int(call.argument, 0, 0xFFFF, "VMTP server id")
            role = VMTPServerHandle(self.protocol, server_id)
        elif call.command == SockIoctl.CONNECT:
            station, server_id = checked_station_peer(
                self.protocol.host.link, call.argument
            )
            role = VMTPClientHandle(self.protocol, station, server_id)
        else:
            raise InvalidArgument("VMTP socket needs BIND or CONNECT first")
        process.fds[call.fd] = role
        self.protocol.kernel.complete(process, role.describe())


class VMTPClientHandle(BufferedSocketHandle):
    """Client role: write a request, read the response."""

    max_write = VMTP_MAX_MESSAGE_BYTES

    def __init__(self, protocol: KernelVMTP, station: bytes, server_id: int) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.station = station
        self.server_id = server_id
        self.client_id = protocol.new_client(self)
        self._transaction = 0
        self._outstanding: VMTPTransaction | None = None
        self._timer = None
        self.retries = 0

    def describe(self) -> int:
        return self.client_id

    def _write(self, process: Process, request: bytes) -> None:
        self.kernel.charge_copy(len(request), component="vmtp")
        self._transaction = (self._transaction + 1) & 0xFFFF
        self._outstanding = VMTPTransaction(
            self.client_id, self.server_id, self._transaction, request
        )
        self._send_request(1)
        self.kernel.complete(process, len(request))

    def _send_request(self, attempt: int) -> None:
        outstanding = self._outstanding
        for packet in outstanding.request_group():
            self.protocol.send_packet(self.station, packet)
        self._timer = self.kernel.scheduler.schedule(
            REQUEST_RETRY_TIMEOUT, self._retry, outstanding, attempt
        )

    def _retry(self, outstanding: VMTPTransaction, attempt: int) -> None:
        if outstanding is not self._outstanding:
            return  # answered, or superseded by a newer write
        if attempt >= MAX_REQUEST_RETRIES:
            self._outstanding = None
            self._post_error(
                SimTimeout(f"VMTP transaction {outstanding.transaction}: no response")
            )
            return
        self.retries += 1
        self._send_request(attempt + 1)

    def packet_arrived(self, station: bytes, packet: VMTPPacket) -> None:
        outstanding = self._outstanding
        if outstanding is None or not outstanding.wants(packet):
            return  # stale response from an abandoned transaction
        message = outstanding.accept(packet)
        if message is None:
            return
        self._timer.cancel()
        self._outstanding = None
        self.protocol.send_packet(self.station, outstanding.ack())
        self._deposit(message)

    def close(self, process: Process) -> None:
        if self._outstanding is not None:
            self._outstanding = None
            self._timer.cancel()
        self.protocol._clients.pop(self.client_id, None)


class VMTPServerHandle(BufferedSocketHandle):
    """Server role: read requests, write responses (FIFO pairing)."""

    max_write = VMTP_MAX_MESSAGE_BYTES

    def __init__(self, protocol: KernelVMTP, server_id: int) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.server_id = server_id
        protocol.bind_server(server_id, self)
        self.transactions = VMTPServerCore(server_id)
        self._pending_replies: list[VMTPRequest] = []   # FIFO of requests read

    def describe(self) -> int:
        return self.server_id

    def packet_arrived(self, station: bytes, packet: VMTPPacket) -> None:
        outcome = self.transactions.packet_in(station, packet)
        if isinstance(outcome, VMTPRequest):
            self._pending_replies.append(outcome)
            self._deposit(outcome.message)
            return
        for response_packet in outcome:
            self.protocol.send_packet(station, response_packet)

    def _write(self, process: Process, response: bytes) -> None:
        if not self._pending_replies:
            raise InvalidArgument("no request is awaiting a response")
        request = self._pending_replies.pop(0)
        self.kernel.charge_copy(len(response), component="vmtp")
        for packet in self.transactions.respond(request, response):
            self.protocol.send_packet(request.station, packet)
        self.kernel.complete(process, len(response))

    def close(self, process: Process) -> None:
        self.protocol._servers.pop(self.server_id, None)
