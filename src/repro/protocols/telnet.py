"""Telnet (remote terminal output) — the table 6-7 workload.

"A program on the 'server' host prints characters which are transmitted
across the network and displayed at the 'user' host."

Two transports, as measured: Pup/BSP over the packet filter, and the
kernel IP/TCP.  Characters flow in small write bursts (a terminal
session's natural granularity), and the user host writes everything it
receives to a rate-limited :class:`repro.sim.display.DisplayDevice`.
The measurement is characters displayed per second — which both
transports can saturate, making the display the bottleneck; that is the
table's point.
"""

from __future__ import annotations

from ..kernelnet.sockets import SockIoctl
from ..sim.process import Close, Ioctl, Open, Read, Write
from .bsp import BSPEndpoint
from .pup import PupAddress

__all__ = [
    "TELNET_BURST_CHARS",
    "telnet_bsp_server",
    "telnet_bsp_user",
    "telnet_tcp_server",
    "telnet_tcp_user",
]

TELNET_BURST_CHARS = 32
"""Characters per protocol write — a printing program's flush size."""

TELNET_TCP_PORT = 23
TELNET_BSP_SERVER_SOCKET = 0x1700
TELNET_BSP_USER_SOCKET = 0x1701


def telnet_bsp_server(host, user_station: bytes, text: bytes):
    """Server side over BSP: stream ``text`` to the user host."""
    endpoint = BSPEndpoint(
        host,
        local_socket=TELNET_BSP_SERVER_SOCKET,
        data_per_packet=TELNET_BURST_CHARS,
    )
    yield from endpoint.start()
    dst = PupAddress(
        net=1, host=user_station[-1], socket=TELNET_BSP_USER_SOCKET
    )
    yield from endpoint.send_stream(user_station, dst, text)
    return endpoint.stats


def telnet_bsp_user(host):
    """User side over BSP: display every received character.

    Returns ``(characters_displayed, finished_at)``.
    """
    endpoint = BSPEndpoint(host, local_socket=TELNET_BSP_USER_SOCKET)
    yield from endpoint.start()
    display_fd = yield Open("display")
    total = 0
    while True:
        chunk = yield from endpoint.recv_some()
        if chunk is None:
            break
        yield Write(display_fd, chunk)
        total += len(chunk)
    return total


def telnet_tcp_server(host, peer_ip: int, text: bytes):
    """Server side over kernel TCP: stream ``text`` in terminal bursts."""
    fd = yield Open("tcp")
    yield Ioctl(fd, SockIoctl.CONNECT, (peer_ip, TELNET_TCP_PORT))
    for offset in range(0, len(text), TELNET_BURST_CHARS):
        yield Write(fd, text[offset : offset + TELNET_BURST_CHARS])
    yield Close(fd)
    return len(text)


def telnet_tcp_user(host):
    """User side over kernel TCP: display every received character."""
    fd = yield Open("tcp")
    yield Ioctl(fd, SockIoctl.BIND, TELNET_TCP_PORT)
    display_fd = yield Open("display")
    total = 0
    while True:
        chunk = yield Read(fd)
        if not chunk:
            break
        yield Write(display_fd, chunk)
        total += len(chunk)
    return total
