"""RARP — the section 5.3 case study, as a working implementation.

"The Reverse Address Resolution Protocol (RARP) was designed to allow
workstations to determine their Internet Protocol (IP) addresses
without relying on any local stable storage...  With the packet filter,
however, a RARP implementation was easy; the work was done in a few
weeks by a student who had no experience with network programming, and
who had no need to learn how to modify the Unix kernel."

RARP is a *parallel layer to IP* (that was the design question the
paper recounts), so it cannot be built on sockets — it needs raw link
access, which is exactly what the packet filter provides.  Wire format
per RFC 903 (ARP packet format with opcodes 3/4 on Ethernet type
0x8035).

Both endpoints are user processes over the packet filter:

* :class:`RARPServer` — filter accepts `ethertype == RARP && op ==
  REVERSE_REQUEST`; answers from a MAC→IP table;
* :func:`rarp_discover` — a diskless client: broadcast the request,
  read with timeout, retry; returns the assigned IP address.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.compiler import compile_expr, word
from ..core.ioctl import PFIoctl
from ..core.port import ReadTimeoutPolicy
from ..core.program import FilterProgram
from ..sim.errors import SimTimeout
from ..sim.process import Ioctl, Open, Read, Write
from .ethertypes import ETHERTYPE_RARP

__all__ = [
    "RARPPacket",
    "RARPError",
    "OP_REVERSE_REQUEST",
    "OP_REVERSE_REPLY",
    "rarp_server_filter",
    "rarp_client_filter",
    "RARPServer",
    "rarp_discover",
]

OP_REVERSE_REQUEST = 3
OP_REVERSE_REPLY = 4

# ARP body word offsets within a 10 Mb/s Ethernet frame (header = 7 words).
_WORD_OP = 10
_WORD_ETHERTYPE = 6

RARP_RETRY_TIMEOUT = 0.5
RARP_MAX_TRIES = 4


class RARPError(ValueError):
    """Malformed RARP packet."""


@dataclass(frozen=True)
class RARPPacket:
    """An ARP-format packet for 6-byte hardware / 4-byte IP addresses."""

    op: int
    sender_hw: bytes
    sender_ip: int
    target_hw: bytes
    target_ip: int

    def encode(self) -> bytes:
        if len(self.sender_hw) != 6 or len(self.target_hw) != 6:
            raise RARPError("hardware addresses must be 6 bytes")
        body = bytearray(28)
        body[0:2] = (1).to_bytes(2, "big")        # htype: Ethernet
        body[2:4] = (0x0800).to_bytes(2, "big")   # ptype: IP
        body[4] = 6                               # hlen
        body[5] = 4                               # plen
        body[6:8] = self.op.to_bytes(2, "big")
        body[8:14] = self.sender_hw
        body[14:18] = self.sender_ip.to_bytes(4, "big")
        body[18:24] = self.target_hw
        body[24:28] = self.target_ip.to_bytes(4, "big")
        return bytes(body)

    @classmethod
    def decode(cls, data: bytes) -> "RARPPacket":
        if len(data) < 28:
            raise RARPError("packet shorter than an ARP body")
        if data[4] != 6 or data[5] != 4:
            raise RARPError("not an Ethernet/IP ARP packet")
        return cls(
            op=int.from_bytes(data[6:8], "big"),
            sender_hw=bytes(data[8:14]),
            sender_ip=int.from_bytes(data[14:18], "big"),
            target_hw=bytes(data[18:24]),
            target_ip=int.from_bytes(data[24:28], "big"),
        )


def rarp_server_filter() -> FilterProgram:
    """Accept reverse-ARP requests (and nothing else)."""
    return compile_expr(
        (word(_WORD_ETHERTYPE) == ETHERTYPE_RARP).likely(0.1)
        & (word(_WORD_OP) == OP_REVERSE_REQUEST).likely(0.5),
        priority=5,
    )


def rarp_client_filter() -> FilterProgram:
    """Accept reverse-ARP replies."""
    return compile_expr(
        (word(_WORD_ETHERTYPE) == ETHERTYPE_RARP).likely(0.1)
        & (word(_WORD_OP) == OP_REVERSE_REPLY).likely(0.5),
        priority=5,
    )


class RARPServer:
    """The RARP daemon: a user process with a MAC→IP table.

    Usage::

        server = RARPServer(host, {client.address: ip_address("10.0.0.7")})
        host.spawn("rarpd", server.run())
    """

    def __init__(self, host, table: dict[bytes, int]) -> None:
        self.host = host
        self.table = dict(table)
        self.requests_answered = 0
        self.requests_unknown = 0

    def run(self):
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, rarp_server_filter())
        while True:
            batch = yield Read(fd)
            for delivered in batch:
                try:
                    request = RARPPacket.decode(
                        self.host.link.payload_of(delivered.data)
                    )
                except RARPError:
                    continue
                ip = self.table.get(request.target_hw)
                if ip is None:
                    self.requests_unknown += 1
                    continue
                reply = RARPPacket(
                    op=OP_REVERSE_REPLY,
                    sender_hw=self.host.address,
                    sender_ip=self.table.get(self.host.address, 0),
                    target_hw=request.target_hw,
                    target_ip=ip,
                )
                frame = self.host.link.frame(
                    request.sender_hw,
                    self.host.address,
                    ETHERTYPE_RARP,
                    reply.encode(),
                )
                yield Write(fd, frame)
                self.requests_answered += 1


def rarp_discover(
    host,
    *,
    retries: int = RARP_MAX_TRIES,
    timeout: float = RARP_RETRY_TIMEOUT,
):
    """Diskless-boot client: find out this host's own IP (yield from).

    Returns the IP address as an int; raises :class:`SimTimeout` when no
    server answers after the retries.  Chaos soaks raise ``retries`` to
    ride out loss bursts.
    """
    fd = yield Open("pf")
    yield Ioctl(fd, PFIoctl.SETFILTER, rarp_client_filter())
    yield Ioctl(
        fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(timeout)
    )
    request = RARPPacket(
        op=OP_REVERSE_REQUEST,
        sender_hw=host.address,
        sender_ip=0,
        target_hw=host.address,
        target_ip=0,
    )
    frame = host.link.frame(
        host.link.broadcast, host.address, ETHERTYPE_RARP, request.encode()
    )
    for _ in range(retries):
        yield Write(fd, frame)
        try:
            batch = yield Read(fd)
        except SimTimeout:
            continue
        for delivered in batch:
            try:
                reply = RARPPacket.decode(host.link.payload_of(delivered.data))
            except RARPError:
                continue
            if (
                reply.op == OP_REVERSE_REPLY
                and reply.target_hw == host.address
            ):
                return reply.target_ip
    raise SimTimeout("no RARP server answered")
