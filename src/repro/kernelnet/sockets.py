"""Kernel socket layer: the syscall surface of the in-kernel protocols.

The paper's baselines (figure 3-2) expose kernel-resident protocols to
user processes through sockets; this module is the shared machinery —
ioctl command codes, the buffered-handle base class with blocking reads
— that :mod:`repro.kernelnet.udp`, :mod:`.tcp` and :mod:`.vmtp` build
their devices on.
"""

from __future__ import annotations

import enum
from collections import deque
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

__all__ = ["SockIoctl", "BufferedSocketHandle"]


class SockIoctl(enum.IntEnum):
    """Socket control commands (the bind/connect surface, ioctl-shaped)."""

    BIND = 100       #: arg: local port / service id
    CONNECT = 101    #: arg: protocol-specific peer address
    SET_MSS = 102    #: arg: max payload bytes per packet (TCP: table 6-6)
    SET_CHECKSUM = 103  #: arg: bool (UDP: table 6-1 measured it off)
    GET_STATS = 104  #: returns a protocol-specific stats object


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
        data, _ = take_bytes(
            self._chunks, self._buffered_bytes if size is None else size
        )
        self._buffered_bytes -= len(data)
        return data
