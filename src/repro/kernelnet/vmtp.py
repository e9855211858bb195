"""Kernel-resident VMTP — the other half of the table 6-2/6-3 comparison.

"Although there is a kernel-resident implementation of VMTP for 4.3BSD,
the first implementation used the packet filter."  This module is that
kernel-resident implementation, deliberately exchanging the *same*
packets as the user-level one in :mod:`repro.protocols.vmtp` (shared
wire format, same segment groups, same retransmission discipline), so
the measured difference between them is purely *where the code runs*:

* all protocol processing (segmentation, reassembly, duplicate
  suppression, retransmission) happens at interrupt level or in the
  syscall path — charged as kernel transport costs, with no
  per-packet context switches or extra copies;
* the user process crosses into the kernel exactly twice per
  transaction on each side (one write, one read), however many packets
  the message needed — figure 2-3's point about kernel residency
  confining overhead packets.
"""

from __future__ import annotations

from typing import Optional

from ..protocols.ethertypes import ETHERTYPE_VMTP
from ..protocols.vmtp import (
    MAX_REQUEST_RETRIES,
    REQUEST_RETRY_TIMEOUT,
    MessageAssembler,
    VMTPError,
    VMTPKind,
    VMTPPacket,
    segment_message,
    select_segments,
)
from ..sim.errors import InvalidArgument, SimTimeout
from ..sim.host import Host
from ..sim.kernel import DeviceDriver, SimKernel
from ..sim.ledger import Primitive
from ..sim.process import Ioctl, Process, Write
from .sockets import BufferedSocketHandle, SockIoctl

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
        self.packets_in = 0
        self.packets_unwanted = 0

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
        if endpoint is None:
            self.packets_unwanted += 1
            return
        self.packets_in += 1
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


class VMTPRoleHandle(BufferedSocketHandle):
    """A freshly opened VMTP socket, before its role is chosen.

    BIND makes it a server; CONNECT makes it a client.  The first ioctl
    swaps in the role-specific handle behaviour by rebinding the fd's
    methods — a tiny trick that keeps each role's logic in its own
    class.
    """

    def __init__(self, protocol: KernelVMTP) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self._role: BufferedSocketHandle | None = None

    def ioctl(self, process: Process, call: Ioctl) -> None:
        if self._role is not None:
            self._role.ioctl(process, call)
            return
        if call.command == SockIoctl.BIND:
            role = VMTPServerHandle(self.protocol, int(call.argument))
        elif call.command == SockIoctl.CONNECT:
            station, server_id = call.argument
            role = VMTPClientHandle(self.protocol, bytes(station), int(server_id))
        else:
            raise InvalidArgument("VMTP socket needs BIND or CONNECT first")
        self._role = role
        self.kernel.complete(process, role.describe())

    # Delegate data operations to the chosen role.

    def read(self, process, call):
        self._require_role().read(process, call)

    def write(self, process, call):
        self._require_role().write(process, call)

    def poll_readable(self) -> bool:
        return self._role is not None and self._role.poll_readable()

    def close(self, process) -> None:
        if self._role is not None:
            self._role.close(process)

    def _require_role(self) -> BufferedSocketHandle:
        if self._role is None:
            raise InvalidArgument("VMTP socket needs BIND or CONNECT first")
        return self._role


class VMTPClientHandle(BufferedSocketHandle):
    """Client role: write a request, read the response."""

    def __init__(self, protocol: KernelVMTP, station: bytes, server_id: int) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.station = station
        self.server_id = server_id
        self.client_id = protocol.new_client(self)
        self._transaction = 0
        self._outstanding: Optional[dict] = None
        self.retries = 0

    def describe(self) -> int:
        return self.client_id

    def write(self, process: Process, call: Write) -> None:
        request = bytes(call.data)
        self.kernel.charge_copy(len(request), component="vmtp")
        self._transaction = (self._transaction + 1) & 0xFFFF
        self._outstanding = {
            "transaction": self._transaction,
            "request": request,
            "assembler": MessageAssembler(),
            "retries": 0,
            "timer": None,
        }
        self._send_request()
        self.kernel.complete(process, len(request))

    def _send_request(self) -> None:
        outstanding = self._outstanding
        assert outstanding is not None
        # Retries carry the selective-retransmission mask of response
        # segments still missing; the first send asks for everything.
        group = segment_message(
            VMTPKind.REQUEST, self.client_id, self.server_id,
            outstanding["transaction"], outstanding["request"],
            segment_mask=outstanding["assembler"].missing_mask(),
        )
        for packet in group:
            self.protocol.send_packet(self.station, packet)
        outstanding["timer"] = self.kernel.scheduler.schedule(
            REQUEST_RETRY_TIMEOUT, self._retry, outstanding["transaction"]
        )

    def _retry(self, transaction: int) -> None:
        outstanding = self._outstanding
        if outstanding is None or outstanding["transaction"] != transaction:
            return
        outstanding["retries"] += 1
        if outstanding["retries"] >= MAX_REQUEST_RETRIES:
            self._outstanding = None
            self._post_error(
                SimTimeout(f"VMTP transaction {transaction}: no response")
            )
            return
        self.retries += 1
        self._send_request()

    def packet_arrived(self, station: bytes, packet: VMTPPacket) -> None:
        outstanding = self._outstanding
        if (
            outstanding is None
            or packet.transaction != outstanding["transaction"]
        ):
            return  # stale response from an abandoned transaction
        message = outstanding["assembler"].add(packet)
        if message is None:
            return
        if outstanding["timer"] is not None:
            outstanding["timer"].cancel()
        self._outstanding = None
        ack = VMTPPacket(
            kind=VMTPKind.RSPACK,
            client=self.client_id,
            server=self.server_id,
            transaction=packet.transaction,
            seg_index=0,
            seg_count=1,
            total_length=0,
        )
        self.protocol.send_packet(self.station, ack)
        self._deposit(message)

    def close(self, process: Process) -> None:
        outstanding, self._outstanding = self._outstanding, None
        if outstanding is not None and outstanding["timer"] is not None:
            outstanding["timer"].cancel()
        self.protocol._clients.pop(self.client_id, None)


class VMTPServerHandle(BufferedSocketHandle):
    """Server role: read requests, write responses (FIFO pairing)."""

    def __init__(self, protocol: KernelVMTP, server_id: int) -> None:
        super().__init__(protocol.kernel)
        self.protocol = protocol
        self.server_id = server_id
        protocol.bind_server(server_id, self)
        self._assemblers: dict[tuple, MessageAssembler] = {}
        self._pending_replies: list[dict] = []   # FIFO of request contexts
        # Client identity is (station, client id): ids are only unique
        # per host, as in VMTP's entity identifiers.
        self._response_cache: dict[tuple, dict] = {}
        self._in_progress: dict[tuple, int] = {}
        self.duplicate_requests = 0

    def describe(self) -> int:
        return self.server_id

    def packet_arrived(self, station: bytes, packet: VMTPPacket) -> None:
        who = (station, packet.client)
        if packet.kind == VMTPKind.RSPACK:
            cached = self._response_cache.get(who)
            if cached is not None and cached["transaction"] == packet.transaction:
                del self._response_cache[who]
            return
        if packet.kind != VMTPKind.REQUEST:
            return
        cached = self._response_cache.get(who)
        if cached is not None and cached["transaction"] == packet.transaction:
            # Duplicate of an answered request: retransmit from cache
            # without bothering the server process (at-most-once), and
            # only the segments the retry's mask still wants.
            self.duplicate_requests += 1
            for response_packet in select_segments(
                cached["group"], packet.segment_mask
            ):
                self.protocol.send_packet(station, response_packet)
            return
        if self._in_progress.get(who) == packet.transaction:
            self.duplicate_requests += 1
            return
        key = (who, packet.transaction)
        assembler = self._assemblers.setdefault(key, MessageAssembler())
        request = assembler.add(packet)
        if request is None:
            return
        del self._assemblers[key]
        self._in_progress[who] = packet.transaction
        self._pending_replies.append(
            {
                "station": station,
                "client": packet.client,
                "transaction": packet.transaction,
            }
        )
        self._deposit(request)

    def write(self, process: Process, call: Write) -> None:
        if not self._pending_replies:
            raise InvalidArgument("no request is awaiting a response")
        context = self._pending_replies.pop(0)
        response = bytes(call.data)
        self.kernel.charge_copy(len(response), component="vmtp")
        group = segment_message(
            VMTPKind.RESPONSE, context["client"], self.server_id,
            context["transaction"], response,
        )
        self._response_cache[(context["station"], context["client"])] = {
            "transaction": context["transaction"],
            "group": group,
        }
        for packet in group:
            self.protocol.send_packet(context["station"], packet)
        self.kernel.complete(process, len(response))

    def close(self, process: Process) -> None:
        self.protocol._servers.pop(self.server_id, None)
