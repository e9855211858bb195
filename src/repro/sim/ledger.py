"""The charge ledger: attributed cost events and per-packet spans.

The paper's entire argument is an *accounting* argument — per-packet
cost decomposed into measured primitives (context switches, copies,
crossings, filter steps; §6.1/§6.5).  :class:`repro.sim.stats.KernelStats`
records only aggregate counters and an undifferentiated ``cpu_time``
sum; this module records *where* each microsecond went.

Two kinds of record:

* a :class:`ChargeEvent` — one attributed cost
  ``(primitive, component, host, sim_time, cost, quantity, packet_id,
  flow)``, emitted by :meth:`repro.sim.kernel.SimKernel.account` or a
  kernel path fold for every charge the kernel makes.  The sum of
  event costs for a host is exactly that host's ``stats.cpu_time``, and
  each ``KernelStats`` counter is exactly the count (or quantity sum)
  of its primitive — :meth:`Ledger.stats_view` replays the events into
  a fresh ``KernelStats`` and the reconciliation test asserts equality.

* a :class:`PacketSpan` — the life of one received packet as a sequence
  of ``(stage, sim_time)`` marks: wire arrival → interrupt → filter
  eval → enqueue → wakeup → (scheduling wait) → dequeue → copy-out →
  syscall return.  Every span is eventually *closed* with an outcome —
  ``delivered``, or one of the drop/diversion outcomes — including on
  every drop path (interface overflow, queue overflow, resize, flush,
  port close, unclaimed, claimed by a kernel protocol).

The ledger is **off by default**: ``SimKernel.ledger`` is ``None`` and
the accounting fast path does no event construction at all.  Enable it
per-world with ``World(ledger=True)`` or ``world.enable_ledger()``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from .stats import KernelStats, nearest_rank

__all__ = [
    "Primitive",
    "ChargeEvent",
    "PacketSpan",
    "Ledger",
    "apply_counters",
    "SPAN_STAGES",
    "SPAN_OUTCOMES",
    "STAGE_WIRE_ARRIVAL",
    "STAGE_INTERRUPT",
    "STAGE_FILTER_EVAL",
    "STAGE_ENQUEUE",
    "STAGE_WAKEUP",
    "STAGE_DEQUEUE",
    "STAGE_COPY_OUT",
    "STAGE_SYSCALL_RETURN",
]


class Primitive(enum.Enum):
    """What one charge event paid for.

    Each value corresponds either to a :class:`~repro.sim.costs.CostModel`
    primitive (those carry a cost) or to a pure counting event (cost 0 —
    drop accounting, wire fates).  The mapping from primitive to
    ``KernelStats`` counter lives in :func:`apply_counters`, which live
    accounting and ledger replay share.
    """

    # -- process/kernel boundary ---------------------------------------
    CONTEXT_SWITCH = "context_switch"
    SYSCALL = "syscall"
    WAKEUP = "wakeup"
    COPY = "copy"
    COMPUTE = "compute"          #: user-mode CPU (the Compute syscall)
    DISPLAY = "display"          #: bitmap-display rendering CPU
    SIGNAL = "signal"
    # -- interrupt-level receive ---------------------------------------
    INTERRUPT = "interrupt"
    BUFFER = "buffer"            #: mbuf shuffling, per frame
    FRAME_RX = "frame_rx"
    UNCLAIMED = "unclaimed"
    # -- packet filter --------------------------------------------------
    PF_FIXED = "pf_fixed"
    FILTER_PREDICATE = "filter_predicate"
    FILTER_INSTRUCTION = "filter_instruction"
    MICROTIME = "microtime"
    PF_SEND_FIXED = "pf_send_fixed"
    FILTER_BIND = "filter_bind"
    # -- kernel-resident protocols --------------------------------------
    IP_INPUT = "ip_input"
    TRANSPORT_INPUT = "transport_input"
    TRANSPORT_OUTPUT = "transport_output"
    CHECKSUM = "checksum"
    UDP_SEND_OVERHEAD = "udp_send_overhead"
    # -- device driver ---------------------------------------------------
    DRIVER_SEND = "driver_send"
    # -- drop accounting (cost-free counting events) ---------------------
    DROP_RING = "dropped_ring"           #: input ring full at admission
    DROP_NOBUF = "dropped_nobuf"         #: kernel buffer pool/share exhausted
    DROP_SHED = "dropped_shed"           #: early drop by the overload policy
    DROP_OVERFLOW = "drop_overflow"      #: port queue overflow
    DROP_RESIZE = "drop_resize"          #: SETQUEUELEN shrink discard
    DROP_FLUSH = "drop_flush"            #: FLUSH ioctl discard
    DROP_CORRUPT = "drop_corrupt"        #: checksum-rejected by a protocol
    DROP_LINK_DOWN = "dropped_link_down"  #: bridge link down at capture/delivery
    # -- wire fates (host="wire"; chaos/loss injection on the segment) ---
    WIRE_LOSS = "wire_loss"
    WIRE_CORRUPT = "wire_corrupt"
    WIRE_REORDER = "wire_reorder"
    WIRE_DUPLICATE = "wire_duplicate"


#: Primitives counted by :meth:`Ledger.drop_summary` — every stage at
#: which a packet (or frame) can be lost, wire to user space.
DROP_PRIMITIVES = (
    Primitive.WIRE_LOSS,
    Primitive.WIRE_CORRUPT,
    Primitive.DROP_RING,
    Primitive.DROP_NOBUF,
    Primitive.DROP_SHED,
    Primitive.DROP_OVERFLOW,
    Primitive.DROP_RESIZE,
    Primitive.DROP_FLUSH,
    Primitive.DROP_CORRUPT,
    Primitive.DROP_LINK_DOWN,
)

_SIMPLE_COUNTERS = {
    Primitive.CONTEXT_SWITCH: "context_switches",
    Primitive.WAKEUP: "wakeups",
    Primitive.INTERRUPT: "interrupts",
    Primitive.FRAME_RX: "frames_received",
    Primitive.DRIVER_SEND: "frames_sent",
    Primitive.SIGNAL: "signals_posted",
    Primitive.UNCLAIMED: "packets_unclaimed",
}
# Resolved once, here, not per charge: a ``Primitive.X`` load goes through
# the enum metaclass and a dict keyed by members hashes them in Python.
# Each member carries the name of the counter one event of it bumps.
for _primitive in Primitive:
    _primitive.counter = _SIMPLE_COUNTERS.get(_primitive)
_SYSCALL, _COPY = Primitive.SYSCALL, Primitive.COPY
_PREDICATE, _INSTRUCTION = Primitive.FILTER_PREDICATE, Primitive.FILTER_INSTRUCTION


def apply_counters(stats: KernelStats, primitive: Primitive, quantity: int = 1) -> None:
    """Bump the ``KernelStats`` counters ``primitive`` stands for.

    Used by both the live accounting path
    (:meth:`repro.sim.kernel.SimKernel.account`) and the replay path
    (:meth:`Ledger.stats_view`), so the two can never disagree about
    which counter a primitive feeds.  The kernel's receive, filter,
    send and syscall folds write their primitives' bumps out instead;
    the census and ledger on/off tests of ``tests/sim/test_ledger.py``
    hold them to this rule.
    """
    name = primitive.counter
    if name is not None:
        setattr(stats, name, getattr(stats, name) + 1)
    elif primitive is _SYSCALL:
        stats.syscalls += 1
        stats.domain_crossings += 2
    elif primitive is _COPY:
        stats.copies += 1
        stats.bytes_copied += quantity
    elif primitive is _PREDICATE:
        stats.filter_predicates += quantity
    elif primitive is _INSTRUCTION:
        stats.filter_instructions += quantity


@dataclass(frozen=True, slots=True)
class ChargeEvent:
    """One attributed cost: who charged what, when, and for which packet."""

    primitive: Primitive
    component: str       #: "nic", "pf", "sched", "udp", ... — the layer
    host: str            #: kernel name ("wire" for segment-level fates)
    sim_time: float
    cost: float          #: simulated CPU seconds (0 for counting events)
    quantity: int        #: bytes for COPY/BUFFER, steps for FILTER_*, else 1
    packet_id: int | None
    flow: Any            #: optional flow key (ethertype, port id, ...)


# -- span stages, in pipeline order ------------------------------------------

STAGE_WIRE_ARRIVAL = "wire_arrival"
STAGE_INTERRUPT = "interrupt"
STAGE_FILTER_EVAL = "filter_eval"
STAGE_ENQUEUE = "enqueue"
STAGE_WAKEUP = "wakeup"
STAGE_DEQUEUE = "dequeue"        #: scheduling wait = dequeue − wakeup
STAGE_COPY_OUT = "copy_out"
STAGE_SYSCALL_RETURN = "syscall_return"

SPAN_STAGES = (
    STAGE_WIRE_ARRIVAL,
    STAGE_INTERRUPT,
    STAGE_FILTER_EVAL,
    STAGE_ENQUEUE,
    STAGE_WAKEUP,
    STAGE_DEQUEUE,
    STAGE_COPY_OUT,
    STAGE_SYSCALL_RETURN,
)
_STAGE_RANK = {name: rank for rank, name in enumerate(SPAN_STAGES)}

SPAN_OUTCOMES = frozenset(
    {
        "delivered",          #: read by a user process
        "kernel_protocol",    #: claimed by a kernel-resident protocol
        "unclaimed",          #: no protocol or filter wanted it
        "dropped_ring",       #: input ring full at admission
        "dropped_nobuf",      #: kernel buffer pool/share exhausted
        "dropped_shed",       #: shed early by the overload policy
        "dropped_overflow",   #: every accepting port's queue was full
        "dropped_resize",     #: discarded by a SETQUEUELEN shrink
        "flushed",            #: discarded by a FLUSH ioctl
        "closed_port",        #: still queued when the port closed
    }
)


@dataclass(slots=True)
class PacketSpan:
    """One received packet's path through the receive pipeline."""

    packet_id: int
    host: str
    flow: Any = None
    stages: list = field(default_factory=list)  #: [(stage, sim_time), ...]
    outcome: str | None = None
    closed_at: float | None = None

    @property
    def closed(self) -> bool:
        return self.outcome is not None

    def stage_time(self, stage: str) -> float | None:
        """First time ``stage`` was recorded (None if it never was)."""
        for name, when in self.stages:
            if name == stage:
                return when
        return None

    def latency(self, start: str, end: str) -> float | None:
        """Elapsed simulated time between two stages (None if either is
        missing — e.g. asking a dropped packet for its copy-out)."""
        t0 = self.stage_time(start)
        t1 = self.stage_time(end)
        if t0 is None or t1 is None:
            return None
        return t1 - t0

    def problems(self) -> list[str]:
        """Well-formedness violations (empty list = a healthy span).

        Checks the properties the hypothesis suite asserts: stages are
        known, their times never run backwards, their order follows the
        pipeline, and a closed span's close time is not before its last
        stage.
        """
        issues: list[str] = []
        last_rank = -1
        last_time = -math.inf
        for name, when in self.stages:
            rank = _STAGE_RANK.get(name)
            if rank is None:
                issues.append(f"unknown stage {name!r}")
                continue
            if rank < last_rank:
                issues.append(
                    f"stage {name!r} out of pipeline order"
                )
            if when < last_time:
                issues.append(f"stage {name!r} time runs backwards")
            last_rank = max(last_rank, rank)
            last_time = max(last_time, when)
        if self.outcome is not None:
            if self.outcome not in SPAN_OUTCOMES:
                issues.append(f"unknown outcome {self.outcome!r}")
            if self.closed_at is not None and self.closed_at < last_time:
                issues.append("closed before its last stage")
        return issues


class Ledger:
    """Append-only store of charge events and packet spans.

    One ledger is shared by every host in a world (events carry the
    host name), so cross-host workloads aggregate naturally and packet
    ids are globally unique.
    """

    def __init__(self) -> None:
        self.events: list[ChargeEvent] = []
        self.spans: dict[int, PacketSpan] = {}
        self._next_packet_id = 1

    # -- merging --------------------------------------------------------

    def hosts(self) -> set[str]:
        """Every host label this ledger has recorded for (events and
        spans; includes the segment-level ``wire*`` labels)."""
        names = {event.host for event in self.events}
        names.update(span.host for span in self.spans.values())
        return names

    def merge(self, other: "Ledger") -> "Ledger":
        """Fold a disjoint world's ledger into this one (in place).

        The sharded orchestrator reassembles a whole-world ledger from
        per-segment ones.  Hosts must be disjoint — the same host
        recorded in two ledgers means the same kernel was accounted
        twice, so that raises.  ``other``'s packet ids are remapped by a
        fixed offset (this ledger's id high-water mark) on both events
        and spans; merging shard results in a deterministic order
        therefore yields identical ids regardless of how segments were
        partitioned into processes.  Returns ``self``.
        """
        overlap = self.hosts() & other.hosts()
        if overlap:
            raise ValueError(
                f"cannot merge ledgers that share hosts: {sorted(overlap)}"
            )
        offset = self._next_packet_id - 1
        collisions = sorted(
            packet_id + offset
            for packet_id in other.spans
            if packet_id + offset in self.spans
        )
        if collisions:
            raise ValueError(
                "packet-id remap collision: remapped ids "
                f"{collisions[:5]} already exist (a ledger holds span ids "
                "at or above its own allocation high-water mark)"
            )
        for event in other.events:
            packet_id = event.packet_id
            if packet_id is not None:
                packet_id += offset
            self.events.append(
                ChargeEvent(
                    event.primitive,
                    event.component,
                    event.host,
                    event.sim_time,
                    event.cost,
                    event.quantity,
                    packet_id,
                    event.flow,
                )
            )
        for packet_id, span in other.spans.items():
            self.spans[packet_id + offset] = PacketSpan(
                span.packet_id + offset,
                span.host,
                span.flow,
                list(span.stages),
                span.outcome,
                span.closed_at,
            )
        self._next_packet_id += other._next_packet_id - 1
        return self

    # -- recording ------------------------------------------------------

    def mark(self) -> int:
        """Current event count — pass as ``start=`` to scope aggregation
        to 'everything after this point' (benchmark baselines)."""
        return len(self.events)

    def record(
        self,
        primitive: Primitive,
        *,
        host: str,
        at: float,
        cost: float = 0.0,
        quantity: int = 1,
        component: str = "kernel",
        packet_id: int | None = None,
        flow: Any = None,
    ) -> None:
        self.events.append(
            ChargeEvent(
                primitive, component, host, at, cost, quantity, packet_id, flow
            )
        )

    def begin_packet(
        self,
        host: str,
        *,
        at: float,
        flow: Any = None,
        stage: str | None,
    ) -> int:
        """Open a span for a newly arrived packet; returns its id.

        ``stage`` is its first stage (:data:`STAGE_WIRE_ARRIVAL` off a
        NIC), or None for a frame handed straight to the kernel."""
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        span = PacketSpan(packet_id, host, flow)
        if stage is not None:
            span.stages.append((stage, at))
        self.spans[packet_id] = span
        return packet_id

    def stage(self, packet_id: int, stage: str, at: float) -> None:
        """Mark a pipeline stage on an open span (no-op once closed or
        for unknown ids, so callers need no existence checks)."""
        span = self.spans.get(packet_id)
        if span is None or span.outcome is not None:
            return
        span.stages.append((stage, at))

    def close_packet(self, packet_id: int, outcome: str, at: float) -> None:
        """Resolve a span; later closes of the same id are ignored (a
        copy-all packet delivered to two ports closes at the first)."""
        span = self.spans.get(packet_id)
        if span is None or span.outcome is not None:
            return
        span.outcome = outcome
        span.closed_at = at

    # -- event aggregation ----------------------------------------------

    def iter_events(
        self,
        host: str | None = None,
        *,
        start: int = 0,
    ) -> Iterator[ChargeEvent]:
        for event in self.events[start:]:
            if host is not None and event.host != host:
                continue
            yield event

    def total_cost(self, host: str | None = None, *, start: int = 0) -> float:
        """Sum of event costs, optionally scoped by host and mark."""
        total = 0.0
        for event in self.iter_events(host, start=start):
            total += event.cost
        return total

    def breakdown(self, host: str | None = None) -> dict[str, dict[str, float]]:
        """Per-primitive totals: ``{name: {events, quantity, cost}}``."""
        out: dict[str, dict[str, float]] = {}
        for event in self.iter_events(host):
            row = out.setdefault(
                event.primitive.value, {"events": 0, "quantity": 0, "cost": 0.0}
            )
            row["events"] += 1
            row["quantity"] += event.quantity
            row["cost"] += event.cost
        return out

    def stats_view(self, host: str) -> KernelStats:
        """Replay ``host``'s events into a fresh :class:`KernelStats`.

        Because the live path adds the identical costs in the identical
        order through its charge sites, the result equals the
        kernel's live ``stats`` exactly (bitwise, floats included) —
        the reconciliation invariant.
        """
        stats = KernelStats()
        for event in self.events:
            if event.host != host:
                continue
            stats.cpu_time += event.cost
            apply_counters(stats, event.primitive, event.quantity)
        return stats

    def drop_summary(self, host: str | None = None) -> dict[str, int]:
        """Packets lost per stage, wire to user space.

        Keys are :data:`DROP_PRIMITIVES` value names.  Wire-level fates
        (``wire_loss``, ``wire_corrupt``) are always included even when
        scoping to a host — they happened *to* that host's traffic, on
        the segment.  Multi-segment worlds label their wire events per
        segment (``wire:<segment>``); every ``wire*`` label counts.
        """
        summary: dict[str, int] = {}
        for event in self.events:
            if event.primitive not in DROP_PRIMITIVES:
                continue
            if (
                host is not None
                and event.host != host
                and not event.host.startswith("wire")
            ):
                continue
            key = event.primitive.value
            summary[key] = summary.get(key, 0) + 1
        return summary

    # -- span aggregation -------------------------------------------------

    def spans_for(self, host: str | None = None) -> list[PacketSpan]:
        if host is None:
            return list(self.spans.values())
        return [span for span in self.spans.values() if span.host == host]

    def open_spans(self, host: str | None = None) -> list[PacketSpan]:
        return [span for span in self.spans_for(host) if not span.closed]

    def stage_latencies(
        self, start_stage: str, end_stage: str, *, host: str | None = None
    ) -> list[float]:
        """Per-packet elapsed time between two stages, for every span
        that reached both."""
        out = []
        for span in self.spans_for(host):
            latency = span.latency(start_stage, end_stage)
            if latency is not None:
                out.append(latency)
        return out

    def stage_percentiles(
        self,
        *,
        host: str | None = None,
        percentiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    ) -> dict[float, float]:
        """Nearest-rank wire-arrival to syscall-return latency percentiles
        (empty dict when no span reached both — e.g. a pure-drop run)."""
        return nearest_rank(
            self.stage_latencies(
                STAGE_WIRE_ARRIVAL, STAGE_SYSCALL_RETURN, host=host
            ),
            percentiles,
        )
