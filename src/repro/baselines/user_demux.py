"""The user-level demultiplexing process — the figure 2-1 baseline.

This is the design the packet filter exists to beat: one privileged
process receives *every* packet and forwards each to its destination
process over a pipe.  Per received packet (section 6.5.1's analysis):

* at least two context switches (into the demultiplexer, then into the
  receiving process),
* two extra data transfers ("Since Unix does not support memory
  sharing, the demultiplexing process requires two additional data
  transfers to get the packet into the final receiving process"),
* and extra system calls for the pipe write and pipe read.

Tables 6-5, 6-8 and 6-9 measure exactly this arrangement; the
:class:`UserDemuxSystem` here is what those benchmarks instantiate.
The demultiplexer itself receives packets through a single high-
priority catch-all packet-filter port — mirroring the paper's own
methodology, where the measured difference is everything *after* the
packet reaches a user process.
"""

from __future__ import annotations

from typing import Callable

from ..core.ioctl import PFIoctl
from ..core.program import FilterProgram, asm
from ..sim.host import Host
from ..sim.pipe import Pipe
from ..sim.process import Ioctl, Open, Process, Read, Write

__all__ = ["catch_all_filter", "UserDemuxSystem", "Inbox"]


def catch_all_filter(priority: int = 200) -> FilterProgram:
    """A filter that accepts every packet (PUSHONE; top of stack ≠ 0),
    bound at high priority so the demux process sees everything first."""
    return FilterProgram(asm("PUSHONE"), priority=priority)


class Inbox:
    """A destination process's receive end of the demultiplexer.

    Pipes are byte streams, so forwarded packets travel with a 2-byte
    length prefix; the inbox deframes them, buffering whatever a read
    drained beyond the current packet (that surplus is what makes a
    batched pipe read pay off).
    """

    def __init__(self, key: object) -> None:
        self.key = key
        self.fd: int | None = None    # filled in by register()
        self.packets = 0
        self._buffer = bytearray()

    def read(self):
        """Receive one packet (yield from inside the destination body)."""
        if self.fd is None:
            raise RuntimeError("inbox is not registered to a process")
        while True:
            if len(self._buffer) >= 2:
                need = 2 + int.from_bytes(self._buffer[:2], "big")
                if len(self._buffer) >= need:
                    packet = bytes(self._buffer[2:need])
                    del self._buffer[:need]
                    self.packets += 1
                    return packet
            data = yield Read(self.fd)
            if not data:
                return None  # demultiplexer went away
            self._buffer.extend(data)


def frame_packet(packet: bytes) -> bytes:
    """Length-prefix one packet for the pipe byte stream."""
    return len(packet).to_bytes(2, "big") + packet


class UserDemuxSystem:
    """One host's user-level demultiplexer and its destination registry.

    ``classify(frame) -> key`` is the demultiplexer's decision function
    (e.g. parse the UDP port or Pup socket).  Destinations are
    registered per key; each gets a pipe from the demux process.

    Typical scenario construction::

        demux = UserDemuxSystem(host, classify=my_classifier)
        inbox = demux.add_destination("telnet")
        dest = host.spawn("dest", dest_body(inbox))
        demux.register(inbox, dest)
        host.spawn("demuxd", demux.run())
    """

    def __init__(
        self,
        host: Host,
        classify: Callable[[bytes], object],
        *,
        batching: bool = False,
    ) -> None:
        self.host = host
        self.classify = classify
        self.batching = batching
        self._pipes: dict[object, Pipe] = {}
        self._write_fds: dict[object, int] = {}
        self.packets_forwarded = 0
        self.packets_unroutable = 0

    # -- wiring -------------------------------------------------------------

    def add_destination(self, key: object) -> Inbox:
        if key in self._pipes:
            raise ValueError(f"destination {key!r} already registered")
        self._pipes[key] = Pipe(self.host.kernel)
        return Inbox(key)

    def register(self, inbox: Inbox, process: Process) -> None:
        """Give ``process`` the read end of its inbox's pipe (the
        stand-in for fork-inherited descriptors)."""
        pipe = self._pipes[inbox.key]
        inbox.fd = process.allocate_fd(pipe.read_end)

    def attach(self, demux_process: Process) -> None:
        """Give the spawned demultiplexing process the write ends.

        Call right after ``host.spawn("demuxd", demux.run())`` — fds
        are installed before the process's first instruction runs.
        """
        for key, pipe in self._pipes.items():
            self._write_fds[key] = demux_process.allocate_fd(pipe.write_end)

    # -- the demultiplexing process itself ----------------------------------------

    def run(self):
        """Process body: receive everything, forward by key."""
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, catch_all_filter())
        yield Ioctl(fd, PFIoctl.SETBATCH, self.batching)
        if self.batching:
            yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
        if not self._write_fds:
            raise RuntimeError("attach() was not called after spawn")
        while True:
            batch = yield Read(fd)
            grouped: dict[object, list[bytes]] = {}
            for delivered in batch:
                # No decision cost: tables 6-8/6-9 were measured "without
                # any real decision-making on the part of the
                # demultiplexer".
                key = self.classify(delivered.data)
                if key not in self._write_fds:
                    self.packets_unroutable += 1
                    continue
                grouped.setdefault(key, []).append(
                    frame_packet(delivered.data)
                )
            for key, frames in grouped.items():
                # One vectored pipe write per destination per batch —
                # the pipe-side amortization batching buys (table 6-9).
                yield Write(self._write_fds[key], tuple(frames))
                self.packets_forwarded += len(frames)
