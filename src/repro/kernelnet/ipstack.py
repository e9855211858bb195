"""The kernel-resident IP layer — the figure 3-2 baseline's foundation.

Receives IP datagrams at interrupt level (registered on the Ethernet
type, exactly the dispatch the paper's kernel performs before the packet
filter ever sees a frame), validates headers, charges the measured
0.49 ms of §6.1 per input, and hands payloads to the bound transport
(UDP/TCP).  Output builds real IPv4 headers with checksums.

Routing is a static next-hop table (ip -> station address) populated by
:func:`link_stacks`; the paper's machines lived on one Ethernet, so a
resolver protocol would add nothing the evaluation measures.  (RARP —
the *reverse* direction — is implemented separately, at user level over
the packet filter, as section 5.3 describes.)
"""

from __future__ import annotations

from typing import Callable

from ..protocols.ethertypes import ETHERTYPE_IP
from ..protocols.ip import IPError, IPHeader, format_ip
from ..sim.host import Host
from ..sim.ledger import Primitive

__all__ = ["KernelNetworkStack", "link_stacks"]


class KernelNetworkStack:
    """One host's in-kernel IP layer plus its transport registry."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.kernel = host.kernel
        #: 10.0.0.<station>, from the data-link address.
        self.ip_address = (10 << 24) | int.from_bytes(host.address[-1:], "big")
        self._routes: dict[int, bytes] = {}
        self._transports: dict[int, Callable] = {}
        self._ip_id = 0
        self.kernel.register_ethertype(ETHERTYPE_IP, self._ip_input)

    # -- configuration ------------------------------------------------------

    def add_route(self, ip: int, station: bytes) -> None:
        """Map a peer IP address to its data-link station address."""
        self._routes[ip] = station

    def routes_to(self, ip: int) -> bool:
        return ip in self._routes

    def register_transport(self, protocol: int, handler: Callable) -> None:
        """``handler(ip_header, payload)`` runs at interrupt level."""
        if protocol in self._transports:
            raise ValueError(f"IP protocol {protocol} already registered")
        self._transports[protocol] = handler

    # -- output ----------------------------------------------------------------

    def send(self, dst_ip: int, protocol: int, payload: bytes) -> None:
        """Build and transmit one IP datagram (kernel context)."""
        station = self._routes.get(dst_ip)
        if station is None:
            raise IPError(f"no route to {format_ip(dst_ip)}")
        self._ip_id = (self._ip_id + 1) & 0xFFFF
        header = IPHeader(
            src=self.ip_address,
            dst=dst_ip,
            protocol=protocol,
            identification=self._ip_id,
        )
        frame = self.host.link.frame(
            station, self.host.address, ETHERTYPE_IP, header.encode(payload)
        )
        self.kernel.network_output(self.host.nic, frame)

    # -- input ------------------------------------------------------------------

    def _ip_input(self, nic, frame: bytes) -> None:
        self.kernel.account(
            Primitive.IP_INPUT, self.kernel.costs.ip_input, component="ip"
        )
        try:
            header, payload = IPHeader.decode(self.host.link.payload_of(frame))
        except IPError:
            return
        if header.dst != self.ip_address:
            return  # not ours; a router we are not
        handler = self._transports.get(header.protocol)
        if handler is not None:
            handler(header, payload)


def link_stacks(*stacks: KernelNetworkStack) -> None:
    """Give every stack a route to every other (one-Ethernet world)."""
    for stack in stacks:
        for other in stacks:
            if other is not stack:
                stack.add_route(other.ip_address, other.host.address)
