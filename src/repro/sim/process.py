"""Simulated user processes and their syscall vocabulary.

A process body is a Python generator that *yields* syscall request
objects and receives their results back, e.g.::

    def client(host):
        def body():
            fd = yield Open("pf0")
            yield Ioctl(fd, PFIoctl.SETFILTER, my_filter)
            yield Write(fd, request_packet)
            packets = yield Read(fd)
            return packets
        return host.spawn("client", body())

This is the user/kernel boundary of the simulation: everything a process
does to the outside world goes through one of these requests, so the
kernel can charge syscall overhead and domain crossings exactly where
the real system would (figure 2-1's accounting).  Pure computation is
charged explicitly with :class:`Compute` — between syscalls, user code
runs in zero simulated time, the standard idealization for this kind of
simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Generator

__all__ = [
    "Syscall",
    "Open",
    "Close",
    "Read",
    "Write",
    "Ioctl",
    "Select",
    "Sleep",
    "Compute",
    "PipeCreate",
    "SigWait",
    "ProcessState",
    "Process",
]


class Syscall:
    """Marker base class for syscall request objects."""

    __slots__ = ()


@dataclass(slots=True)
class Open(Syscall):
    """Open a device by name; returns a file descriptor."""

    path: str


@dataclass(slots=True)
class Close(Syscall):
    """Close a file descriptor; returns None."""

    fd: int


@dataclass(slots=True)
class Read(Syscall):
    """Read from a descriptor.

    For packet-filter ports the result is a list of
    :class:`repro.core.port.DeliveredPacket` — one element normally,
    every queued packet when the port has batching enabled (figure 3-5).
    For stream devices (sockets, pipes) the result is bytes of at most
    ``size``.
    """

    fd: int
    size: int | None = None


@dataclass(slots=True)
class Write(Syscall):
    """Write to a descriptor; returns the byte count accepted."""

    fd: int
    data: bytes


@dataclass(slots=True)
class Ioctl(Syscall):
    """Device control; returns a command-specific result."""

    fd: int
    command: int
    argument: Any = None


@dataclass(slots=True)
class Select(Syscall):
    """Block until any of ``read_fds`` is readable; returns the ready
    subset (empty on timeout) — the 4.3BSD select of section 3."""

    read_fds: tuple[int, ...]
    timeout: float | None = None

    def __post_init__(self) -> None:
        self.read_fds = tuple(self.read_fds)


@dataclass(slots=True)
class Sleep(Syscall):
    """Block for a fixed simulated duration; returns None."""

    duration: float


@dataclass(slots=True)
class Compute(Syscall):
    """Consume CPU in user mode for ``duration`` seconds.

    Protocol implementations charge their per-packet processing through
    this, making "user-level protocol processing" a measurable cost."""

    duration: float


@dataclass(slots=True)
class PipeCreate(Syscall):
    """Create a pipe; returns ``(read_fd, write_fd)``."""


@dataclass(slots=True)
class SigWait(Syscall):
    """Block until a signal is posted to this process; returns its
    number.  With the packet filter's SETSIGNAL this is the
    "interrupt-like facility using Unix signals" of section 3."""


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class Process:
    """One simulated process: a pid, a name, a generator, and fd table."""

    def __init__(self, pid: int, name: str, body: Generator) -> None:
        self.pid = pid
        self.name = name
        self.body = body
        self.state = ProcessState.READY
        self.fds: dict[int, Any] = {}          # fd -> device handle
        self.next_fd = 3                        # 0..2 reserved, as ever
        self.pending_signals: list[int] = []
        self.result: Any = None
        self.error: BaseException | None = None
        self.finished_at: float | None = None
        #: In a terminal state, DONE or FAILED.  A plain field, read
        #: several times a packet: :meth:`SimKernel._finish` is the one
        #: place that sets either state, and it sets this with it.
        self.done = False

    def allocate_fd(self, handle: Any) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = handle
        return fd

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r}, state={self.state.value})"
