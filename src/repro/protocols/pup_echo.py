"""Pup Echo — the Pup suite's ping (EchoMe / ImAnEcho).

The Pup protocol family assigned type 1 to ``EchoMe`` and type 2 to
``ImAnEcho``: a host returns any EchoMe Pup to its sender with the type
flipped and the data intact.  Echo servers were the first thing every
Pup implementation ran, and the natural smoke test for a packet-filter
protocol stack — a complete user-level protocol in two page-fitting
functions.

Both ends run over the packet filter with figure 3-9-style socket
filters, on either Ethernet (the 3 Mb/s experimental one included,
where the word offsets are exactly the paper's figure 3-7).
"""

from __future__ import annotations

from ..sim.errors import SimTimeout
from ..sim.process import Ioctl, Open, Read, Write
from ..core.ioctl import PFIoctl
from ..core.port import ReadTimeoutPolicy
from .bsp import bsp_socket_filter, pup_ethertype
from .pup import PupAddress, PupError, PupHeader

__all__ = [
    "PUP_ECHO_ME",
    "PUP_IM_AN_ECHO",
    "ECHO_SOCKET",
    "pup_echo_server",
    "pup_ping",
]

PUP_ECHO_ME = 1      #: Pup type: please echo this
PUP_IM_AN_ECHO = 2   #: Pup type: the echo
ECHO_SOCKET = 5      #: the well-known Pup echo socket

PING_SOCKET = 0x77   #: the pinger's own Pup socket
PING_DATA = b"pup echo probe"
PING_TIMEOUT = 0.25
PING_RETRIES = 4


def pup_echo_server(host):
    """Process body: answer every EchoMe on :data:`ECHO_SOCKET`, forever."""
    fd = yield Open("pf")
    yield Ioctl(
        fd, PFIoctl.SETFILTER, bsp_socket_filter(host.link, ECHO_SOCKET)
    )
    while True:
        batch = yield Read(fd)
        for delivered in batch:
            try:
                header, data = PupHeader.decode(
                    host.link.payload_of(delivered.data)
                )
            except PupError:
                continue
            if header.pup_type != PUP_ECHO_ME:
                continue
            reply = PupHeader(
                pup_type=PUP_IM_AN_ECHO,
                identifier=header.identifier,
                dst=header.src,
                src=header.dst,
            )
            station = host.link.source_of(delivered.data)
            yield Write(
                fd,
                host.link.frame(
                    station,
                    host.address,
                    pup_ethertype(host.link),
                    reply.encode(data, with_checksum=True),
                ),
            )


def pup_ping(
    host,
    station: bytes,
    *,
    count: int = 3,
    retries: int = PING_RETRIES,
):
    """Sub-generator: ping ``station``'s echo socket ``count`` times.

    Returns a list of round-trip times in seconds (one per successful
    echo); raises :class:`SimTimeout` if an echo never comes back after
    the retries — the "write; read with timeout; retry" paradigm again.
    Chaos soaks raise ``retries`` to ride out loss bursts.
    """
    fd = yield Open("pf")
    yield Ioctl(
        fd, PFIoctl.SETFILTER, bsp_socket_filter(host.link, PING_SOCKET)
    )
    yield Ioctl(fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(PING_TIMEOUT))

    scheduler = host.kernel.scheduler
    round_trips = []
    for sequence in range(count):
        probe = PupHeader(
            pup_type=PUP_ECHO_ME,
            identifier=sequence,
            dst=PupAddress(net=1, host=station[-1], socket=ECHO_SOCKET),
            src=PupAddress(net=1, host=host.address[-1], socket=PING_SOCKET),
        )
        frame = host.link.frame(
            station, host.address, pup_ethertype(host.link),
            probe.encode(PING_DATA, with_checksum=True),
        )
        echoed = None
        for _attempt in range(retries):
            sent_at = scheduler.now
            yield Write(fd, frame)
            try:
                batch = yield Read(fd)
            except SimTimeout:
                continue
            for delivered in batch:
                try:
                    header, payload = PupHeader.decode(
                        host.link.payload_of(delivered.data)
                    )
                except PupError:
                    continue
                if (
                    header.pup_type == PUP_IM_AN_ECHO
                    and header.identifier == sequence
                    and payload == PING_DATA
                ):
                    echoed = scheduler.now - sent_at
                    break
            if echoed is not None:
                break
        if echoed is None:
            raise SimTimeout(f"echo {sequence} never returned")
        round_trips.append(echoed)
    return round_trips
