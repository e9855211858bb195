"""Pipes — the IPC the user-level demultiplexer baseline pays for.

Section 6.5's analysis: "Since Unix does not support memory sharing,
the demultiplexing process requires two additional data transfers to
get the packet into the final receiving process."  Those two transfers
are exactly what this pipe charges: one kernel copy when the writer
writes, one when the reader reads.

Like a real Unix pipe this is a *byte stream*: a read drains whatever is
buffered (up to the requested size) in one kernel copy and one system
call, so a reader that fell behind catches up in one go — the pipe-side
analogue of received-packet batching, and the reason batching helps the
user-level demultiplexer at all (table 6-9).  Writers may pass a tuple
of byte strings (a vectored write: one system call, several chunks).
The capacity limit and writer blocking of the real thing are kept.
Arguments are checked at the descriptor, before anything blocks, so a
bad ``Write.data`` or ``Read.size`` fails the caller with
:class:`InvalidArgument` and nobody else.
"""

from __future__ import annotations

from collections import deque

from .errors import BrokenPipe
from .kernel import (
    DeviceHandle,
    SimKernel,
    WaitQueue,
    checked_payload,
    checked_read_size,
)
from .process import Process, Read, Write

__all__ = ["Pipe", "PIPE_CAPACITY", "take_bytes"]

PIPE_CAPACITY = 4096
"""Maximum buffered bytes before writers block (4.3BSD's 4KB)."""


def take_bytes(chunks: deque[bytes], size: int) -> bytes:
    """A byte-stream read: coalesce up to ``size`` bytes off the front of
    ``chunks``."""
    out = bytearray()
    while chunks and len(out) < size:
        chunk = chunks[0]
        need = size - len(out)
        if len(chunk) <= need:
            out.extend(chunks.popleft())
        else:
            out.extend(chunk[:need])
            chunks[0] = chunk[need:]
    return bytes(out)


class Pipe:
    """A unidirectional message pipe with kernel-copy costs."""

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self._chunks: deque[bytes] = deque()
        self._buffered = 0
        self._readers_open = True
        self._writers_open = True
        self._read_waiters = WaitQueue(kernel, component="pipe")
        self._write_waiters = WaitQueue(kernel, component="pipe")
        self.read_end = _ReadEnd(self)
        self.write_end = _WriteEnd(self)

    # -- writer side -----------------------------------------------------

    def write(self, process: Process, chunks: tuple[bytes, ...]) -> None:
        if not self._readers_open:
            self.kernel.fail(process, BrokenPipe("pipe has no reader"))
            return
        total = sum(len(chunk) for chunk in chunks)
        if self._buffered + total > PIPE_CAPACITY and self._buffered > 0:
            self._write_waiters.block(
                process, lambda proc: self.write(proc, chunks)
            )
            return
        for chunk in chunks:
            self._chunks.append(chunk)
        self._buffered += total
        self.kernel.charge_copy(total, component="pipe")  # user -> kernel
        self.kernel.complete(process, total)
        self._read_waiters.wake_all()
        self.kernel.readiness_changed()

    # -- reader side ---------------------------------------------------------

    def read(self, process: Process, call: Read) -> None:
        if not self._chunks:
            if not self._writers_open:
                self.kernel.complete(process, b"")  # EOF
                return
            self._read_waiters.block(
                process, lambda proc: self.read(proc, call)
            )
            return
        size = call.size if call.size is not None else self._buffered
        data = take_bytes(self._chunks, size)
        self._buffered -= len(data)
        self.kernel.charge_copy(len(data), component="pipe")  # kernel -> user
        self.kernel.complete(process, data)
        self._write_waiters.wake_all()

    def readable(self) -> bool:
        return bool(self._chunks) or not self._writers_open

    def close_read(self) -> None:
        self._readers_open = False
        self._write_waiters.wake_all()  # writers now see BrokenPipe

    def close_write(self) -> None:
        self._writers_open = False
        self._read_waiters.wake_all()  # readers now see EOF
        self.kernel.readiness_changed()  # and so does select()


class _PipeEnd(DeviceHandle):
    """Common refcounting: an end shared into several fd tables (via
    ``SimKernel.share_fd``, the fork-inheritance stand-in) only really
    closes when its last descriptor does — as in Unix."""

    def __init__(self, pipe: Pipe) -> None:
        self.pipe = pipe
        self._references = 1

    def retain(self) -> None:
        self._references += 1

    def close(self, process: Process) -> None:
        self._references -= 1
        if self._references <= 0:
            self._really_close()

    def _really_close(self) -> None:
        raise NotImplementedError


class _ReadEnd(_PipeEnd):
    def read(self, process: Process, call: Read) -> None:
        checked_read_size(call.size)
        self.pipe.read(process, call)

    def poll_readable(self) -> bool:
        return self.pipe.readable()

    def _really_close(self) -> None:
        self.pipe.close_read()


class _WriteEnd(_PipeEnd):
    def write(self, process: Process, call: Write) -> None:
        data = call.data
        chunks = data if isinstance(data, (list, tuple)) else (data,)
        self.pipe.write(process, tuple(map(checked_payload, chunks)))

    def _really_close(self) -> None:
        self.pipe.close_write()
