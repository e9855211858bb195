"""Packet-filter ports: the per-process receive endpoint (section 3).

"The packet filter manages some number of ports, each of which may be
opened by a Unix program as a 'character special device'.  Associated
with each port is a filter, a user-specified predicate on received
packets.  If a filter accepts a packet, the packet is queued for
delivery to the associated port."

A :class:`Port` here is the kernel-side object: the bounded input queue,
the bound filter, and the per-port control state of section 3.3 (queue
length, timestamping, copy-all, signal).  Blocking, timeouts and signal
*delivery* are the simulated kernel's job (:mod:`repro.core.device`);
this module stays kernel-agnostic so it can be unit-tested directly and
reused by the real-time examples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .program import FilterProgram

__all__ = [
    "DeliveredPacket",
    "Port",
    "PortStats",
    "DEFAULT_QUEUE_LIMIT",
    "ReadTimeoutPolicy",
]

DEFAULT_QUEUE_LIMIT = 8
"""Default maximum per-port input queue length — deliberately small, as
the historical driver's was; section 3.3 lets the user raise it (and a
batching client should, or bursts overflow: see table 6-4's analysis)."""


@dataclass(slots=True)
class DeliveredPacket:
    """One packet as handed to a reading process.

    "The entire packet, including the data-link layer header, is
    returned" — ``data`` is the whole frame.  ``timestamp`` and
    ``drops_before`` are the optional per-packet marks of section 3.3
    (receive time, and the count of packets lost to queue overflows
    before this one was queued)."""

    data: bytes
    timestamp: float | None = None
    drops_before: int = 0
    packet_id: int | None = None  #: ledger span id, when tracing is on

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class ReadTimeoutPolicy:
    """Section 3.3 read-blocking control.

    ``timeout`` > 0 blocks for at most that many simulated seconds;
    ``timeout`` = 0 with ``blocking`` False returns immediately;
    ``timeout`` None with ``blocking`` True blocks indefinitely.
    """

    blocking: bool = True
    timeout: float | None = None

    @classmethod
    def immediate(cls) -> "ReadTimeoutPolicy":
        return cls(blocking=False, timeout=0.0)

    @classmethod
    def forever(cls) -> "ReadTimeoutPolicy":
        return cls(blocking=True, timeout=None)

    @classmethod
    def after(cls, seconds: float) -> "ReadTimeoutPolicy":
        if seconds < 0:
            raise ValueError("timeout must be non-negative")
        return cls(blocking=True, timeout=seconds)


@dataclass
class PortStats:
    """Lifetime counters for one port."""

    accepted: int = 0          #: packets the filter accepted
    delivered: int = 0         #: packets actually queued
    dropped_overflow: int = 0  #: packets lost to a full queue
    dropped_nobuf: int = 0     #: packets refused by the kernel buffer pool
    dropped_resize: int = 0    #: packets discarded by a queue-limit shrink
    read: int = 0              #: packets handed to the reader
    reads: int = 0             #: read operations (batch = 1 read)


class Port:
    """One packet-filter port.

    The port accepts whatever its bound :class:`FilterProgram` accepts;
    binding and rebinding happen through the device ioctl (section 3:
    "a new filter can be bound at any time, at a cost comparable to that
    of receiving a packet").
    """

    def __init__(
        self,
        port_id: int,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue limit must be at least 1")
        self.port_id = port_id
        self.program: FilterProgram | None = None
        self.queue_limit = queue_limit
        #: submit accepted packets onward too; while attached, follow a
        #: change with ``PacketFilterDemux.invalidate()``
        self.copy_all = False
        self.timestamping = False      #: mark packets with receive time
        self.signal: int | None = None  #: signal to post on reception
        self.read_policy = ReadTimeoutPolicy.forever()
        self.batching = False          #: return all queued packets per read
        self.stats = PortStats()
        self._queue: deque[DeliveredPacket] = deque()
        #: optional callback ``(packet, reason)`` fired for each queued
        #: packet discarded administratively (``"resize"``/``"flush"``)
        #: — the device uses it to close the packet's ledger span.  The
        #: port itself stays kernel- and ledger-agnostic.
        self.on_drop = None
        #: optional shared :class:`repro.sim.overload.BufferPool` —
        #: every queued packet holds one reservation under
        #: :attr:`pool_owner`, taken at enqueue and released at read,
        #: discard, or teardown.  The device wires this at open time.
        self.pool = None
        #: why the most recent :meth:`enqueue` returned False
        #: (``"overflow"`` or ``"nobuf"``) — the demultiplexer reads it
        #: to attribute the drop to the right primitive.
        self.last_drop_cause: str | None = None

    @property
    def pool_owner(self) -> tuple:
        """This port's reservation tag in the shared buffer pool."""
        return ("port", self.port_id)

    def telemetry_gauges(self) -> dict:
        """Gauge callables for the telemetry sampler — instantaneous
        queue depth plus the lifetime delivery/drop counters.  The
        device publishes these at open and retracts them at close; the
        port itself stays kernel- and telemetry-agnostic."""
        return {
            "depth": lambda: len(self._queue),
            "read": lambda: self.stats.read,
            "dropped_overflow": lambda: self.stats.dropped_overflow,
            "dropped_nobuf": lambda: self.stats.dropped_nobuf,
        }

    # -- configuration (the ioctl surface calls these) -----------------------

    def bind_filter(self, program: FilterProgram | None) -> None:
        """Bind (or clear) the port's filter predicate."""
        self.program = program

    def set_queue_limit(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("queue limit must be at least 1")
        self.queue_limit = limit
        while len(self._queue) > limit:
            packet = self._queue.pop()
            # Shrink discards are an administrative act, not wire-time
            # congestion: counting them as overflow would inflate the
            # section 3.3 ``drops_before`` mark on every packet queued
            # afterwards, so they get their own counter.
            self.stats.dropped_resize += 1
            if self.pool is not None:
                self.pool.release(self.pool_owner)
            if self.on_drop is not None:
                self.on_drop(packet, "resize")

    # -- kernel side -----------------------------------------------------------

    def enqueue(
        self,
        data: bytes,
        timestamp: float | None = None,
        packet_id: int | None = None,
    ) -> bool:
        """Queue an accepted packet; returns False when it was dropped.

        The drop count carried by the *next* successfully queued packet
        reports losses, as section 3.3 describes.
        """
        stats = self.stats
        stats.accepted += 1
        if len(self._queue) >= self.queue_limit:
            stats.dropped_overflow += 1
            self.last_drop_cause = "overflow"
            return False
        if self.pool is not None and not self.pool.reserve(self.pool_owner):
            # The shared pool (or this port's share of it) is exhausted:
            # the filter's work is sunk, but no buffer is consumed.  Kept
            # out of ``dropped_overflow`` so the section 3.3
            # ``drops_before`` mark keeps meaning queue congestion.
            stats.dropped_nobuf += 1
            self.last_drop_cause = "nobuf"
            return False
        self._queue.append(
            DeliveredPacket(
                data,
                timestamp if self.timestamping else None,
                stats.dropped_overflow,
                packet_id,
            )
        )
        stats.delivered += 1
        return True

    # -- reader side ---------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self._queue)

    def readable(self) -> bool:
        return bool(self._queue)

    def read_packets(self, max_packets: int | None = None) -> list[DeliveredPacket]:
        """Dequeue up to ``max_packets`` packets (all queued if None).

        One call models one read(2): with batching enabled the device
        passes ``None`` so "all pending packets [are] returned in a
        batch", amortizing the system call (figure 3-5).
        """
        queue = self._queue
        if max_packets is None or max_packets >= len(queue):
            batch = list(queue)
            queue.clear()
        else:
            popleft = queue.popleft
            batch = [popleft() for _ in range(max_packets)]
        if batch:
            self.stats.reads += 1
            self.stats.read += len(batch)
            if self.pool is not None:
                self.pool.release(self.pool_owner, len(batch))
        return batch

    def flush(self) -> int:
        """Discard all queued packets; returns how many were dropped."""
        count = len(self._queue)
        if self.on_drop is not None:
            for packet in self._queue:
                self.on_drop(packet, "flush")
        if self.pool is not None and count:
            self.pool.release(self.pool_owner, count)
        self._queue.clear()
        return count

    def teardown(self) -> tuple[DeliveredPacket, ...]:
        """Release every queued buffer and clear the queue — the close
        and kill path.  Returns what was pending so the caller (the
        device) can close the packets' ledger spans; after this the
        port holds nothing in the shared pool.
        """
        pending = tuple(self._queue)
        if self.pool is not None:
            self.pool.release_all(self.pool_owner)
        self._queue.clear()
        return pending

    def __repr__(self) -> str:
        # -1: no filter bound
        priority = self.program.priority if self.program is not None else -1
        return (
            f"Port({self.port_id}, queued={self.queued}, "
            f"priority={priority}, copy_all={self.copy_all})"
        )
