"""Kernel socket layer: the syscall surface of the in-kernel protocols.

The paper's baselines (figure 3-2) expose kernel-resident protocols to
user processes through sockets; this module is the shared machinery —
ioctl command codes, the buffered-handle base class with blocking reads,
the port table, and the checks on every ioctl argument — that
:mod:`repro.kernelnet.udp`, :mod:`.tcp` and :mod:`.vmtp` build their
devices on.  An argument of the wrong type or range fails the calling
process with :class:`InvalidArgument` and nobody else.
"""

from __future__ import annotations

import enum
from collections import deque
from ..protocols.ip import format_ip
from ..sim.errors import InvalidArgument
from ..sim.kernel import (
    DeviceHandle,
    SimKernel,
    WaitQueue,
    checked_payload,
    checked_read_size,
)
from ..sim.pipe import take_bytes
from ..sim.process import Ioctl, Process, Read, Write

__all__ = ["SockIoctl", "BufferedSocketHandle", "PortTable"]


class SockIoctl(enum.IntEnum):
    """Socket control commands (the bind/connect surface, ioctl-shaped)."""

    BIND = 100       #: arg: local port / service id
    CONNECT = 101    #: arg: protocol-specific peer address
    SET_MSS = 102    #: arg: max payload bytes per packet (TCP: table 6-6)
    SET_CHECKSUM = 103  #: arg: bool (UDP: table 6-1 measured it off)
    GET_STATS = 104  #: returns a protocol-specific stats object


def checked_int(value, low: int, high: int, what: str) -> int:
    """``value`` if it is an ``int`` in ``low..high``."""
    if isinstance(value, bool) or not isinstance(value, int) or not (
        low <= value <= high
    ):
        raise InvalidArgument(f"{what} must be an int in {low}..{high}, got {value!r}")
    return value


def _checked_pair(value, what: str) -> tuple:
    """``value`` if it is a 2-tuple (a CONNECT peer address)."""
    if not isinstance(value, tuple) or len(value) != 2:
        raise InvalidArgument(f"{what} must be a 2-tuple, got {value!r}")
    return value


def checked_port(value) -> int | None:
    """A BIND argument: None (any free port) or a port number."""
    return None if value is None else checked_int(value, 1, 0xFFFF, "port")


def checked_ip_peer(stack, value) -> tuple[int, int]:
    """A UDP/TCP CONNECT argument: an ``(ip, port)`` the stack routes to."""
    ip, port = _checked_pair(value, "peer")
    checked_int(ip, 0, 0xFFFFFFFF, "peer IP address")
    checked_int(port, 1, 0xFFFF, "peer port")
    if not stack.routes_to(ip):
        raise InvalidArgument(f"no route to {format_ip(ip)}")
    return ip, port


def checked_station_peer(link, value) -> tuple[bytes, int]:
    """A VMTP CONNECT argument: a ``(station address, server id)``."""
    station, server_id = _checked_pair(value, "peer")
    if not isinstance(station, (bytes, bytearray)) or (
        len(station) != link.address_length
    ):
        raise InvalidArgument(
            f"station must be {link.address_length} address bytes, got {station!r}"
        )
    return bytes(station), checked_int(server_id, 0, 0xFFFF, "server id")


class PortTable:
    """One transport's bound ports: explicit BINDs, and ephemeral ports
    counted up from ``first_ephemeral`` for the rest."""

    def __init__(self, protocol: str, first_ephemeral: int) -> None:
        self.protocol = protocol
        self._handles: dict[int, DeviceHandle] = {}
        self._next_ephemeral = first_ephemeral

    def get(self, port: int) -> DeviceHandle | None:
        return self._handles.get(port)

    def bind(self, handle: DeviceHandle, port) -> int:
        port = checked_port(port)
        if port is None:
            while self._next_ephemeral in self._handles:
                self._next_ephemeral += 1
            port = checked_int(
                self._next_ephemeral, 1, 0xFFFF, f"{self.protocol} ephemeral port"
            )
            self._next_ephemeral += 1
        if port in self._handles:
            raise InvalidArgument(f"{self.protocol} port {port} is in use")
        self._handles[port] = handle
        return port

    def release(self, port: int | None) -> None:
        if port is not None:
            self._handles.pop(port, None)


class BufferedSocketHandle(DeviceHandle):
    """A socket with a kernel receive buffer and blocking reads.

    Subclasses deposit received data with :meth:`_deposit` (datagram
    sockets deposit message chunks; stream sockets deposit bytes) and
    implement their own ``_write``/``ioctl``.  ``Write.data`` and
    ``Read.size`` are checked here, once for every socket, so a bad one
    fails the caller with :class:`InvalidArgument` and nobody else.
    """

    #: Datagram sockets: queued messages before drops.  Stream sockets
    #: override flow control with windows instead.
    RECEIVE_QUEUE_LIMIT = 32
    #: Longest ``Write.data`` accepted; None for a stream.
    max_write: int | None = None

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self._chunks: deque[bytes] = deque()
        self._buffered_bytes = 0
        self._eof = False
        self._pending_error = None
        self._readers = WaitQueue(kernel)
        self.drops = 0           #: messages lost to a full receive queue
        self.received_messages = 0

    # -- kernel side ------------------------------------------------------

    def _deposit(self, data: bytes) -> bool:
        """Queue received data for the reader; False when dropped."""
        if len(self._chunks) >= self.RECEIVE_QUEUE_LIMIT:
            self.drops += 1
            return False
        self._chunks.append(data)
        self._buffered_bytes += len(data)
        self.received_messages += 1
        self._readers.wake_all()
        self.kernel.readiness_changed()
        return True

    def _mark_eof(self) -> None:
        self._eof = True
        self._readers.wake_all()
        self.kernel.readiness_changed()

    def _post_error(self, error) -> None:
        """Fail the next read(s) with ``error`` (e.g. transaction
        timeout in kernel VMTP)."""
        self._pending_error = error
        self._readers.wake_all()
        self.kernel.readiness_changed()

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    # -- reader side -------------------------------------------------------

    def poll_readable(self) -> bool:
        return bool(self._chunks) or self._eof

    def read(self, process: Process, call: Read) -> None:
        size = checked_read_size(call.size)
        if self._chunks:
            data = self._take(size)
            self.kernel.charge_copy(len(data), component="socket")
            self.kernel.complete(process, data)
            self._after_read()
            return
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            self.kernel.fail(process, error)
            return
        if self._eof:
            self.kernel.complete(process, b"")
            return
        self._readers.block(process, lambda proc: self.read(proc, call))

    def _take(self, size: int | None) -> bytes:
        """Datagram behaviour: one message per read.  Stream subclasses
        override to coalesce up to ``size`` bytes."""
        chunk = self._chunks.popleft()
        self._buffered_bytes -= len(chunk)
        return chunk

    def _after_read(self) -> None:
        """Hook for flow control (stream sockets reopen their window)."""

    # -- writer side -------------------------------------------------------

    def write(self, process: Process, call: Write) -> None:
        self._write(process, checked_payload(call.data, self.max_write))

    # -- defaults ------------------------------------------------------------

    def ioctl(self, process: Process, call: Ioctl) -> None:
        raise InvalidArgument(f"unsupported socket ioctl {call.command!r}")


class StreamReadMixin:
    """Byte-stream ``_take``: coalesce chunks up to the requested size."""

    def _take(self, size: int | None) -> bytes:
        data = take_bytes(
            self._chunks, self._buffered_bytes if size is None else size
        )
        self._buffered_bytes -= len(data)
        return data
