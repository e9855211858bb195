"""The kernel demultiplexer — the figure 4-1 application loop.

"When a packet is received, it is checked against each filter, in order
of decreasing priority, until it is accepted or until all filters have
rejected it."

Responsibilities implemented here, straight from sections 3.2 and 4:

* priority-ordered application, first-match delivery;
* the copy-all option: an accepting port may let the packet continue to
  lower-priority filters ("multiple copies of such packets may be
  delivered");
* same-priority reordering: "the interpreter may occasionally reorder
  such filters to place the busier ones first" — every
  ``REORDER_INTERVAL`` deliveries, filters within one priority class are
  re-sorted by how often they have accepted;
* accounting: predicates tested and filter instructions executed per
  packet, the quantities behind the section 6.1 cost estimate
  ``0.8 mSec + 0.122 mSec × predicates`` and table 6-10;
* engine selection — the baseline checked interpreter, the section 7
  prevalidated fast path, the compiled-closure "machine code" path,
  and the IR engine that compiles the entire set into one decision
  table through a real compiler middle-end — cross-filter CSE,
  dispatch-tree predicate reordering (:mod:`repro.core.ir` /
  :mod:`repro.core.opt` / :mod:`repro.core.irgen`);
* the opt-in **flow cache** (any engine): a direct-mapped memo of
  classification results keyed by the packet's discriminating header
  prefix, invalidated whenever the filter set or its order changes;
* batched delivery (:meth:`PacketFilterDemux.deliver_batch`): a loop
  over :meth:`~PacketFilterDemux.deliver`, there so the receive path
  can charge one dispatch overhead per burst — the section 6.4
  batching argument applied to demultiplexing itself.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .flowcache import FlowCache
from .irgen import CompiledIRSet, IRStats, SetEntry, compile_ir_set
from .interpreter import LanguageLevel, ShortCircuitMode, decode_plan, run_plan
from .jit import CompiledFilter, compile_filter
from .port import Port
from .program import FilterProgram
from .validator import ValidationReport, validate

__all__ = ["Engine", "DeliveryReport", "PacketFilterDemux"]


class Engine(enum.Enum):
    """How bound filters are evaluated against packets."""

    CHECKED = "checked"          #: section 4 interpreter, all runtime checks
    PREVALIDATED = "prevalidated"  #: section 7: checks hoisted to bind time
    COMPILED = "compiled"        #: section 7: filters lowered to closures
    IR = "ir"                    #: set compiled through the SSA/DAG middle-end


# Bound once for the per-packet path: on Python 3.11 every ``Engine.X``
# load runs the enum metaclass's ``__getattr__`` hook.
_COMPILED = Engine.COMPILED
_PREVALIDATED = Engine.PREVALIDATED
_PUSH_RESULT = ShortCircuitMode.PUSH_RESULT
_EXTENDED = LanguageLevel.EXTENDED


@dataclass(frozen=True)
class DeliveryReport:
    """What happened to one received packet."""

    accepted_by: tuple[int, ...] = ()   #: port ids, in delivery order
    dropped_by: tuple[int, ...] = ()    #: accepted but queue-overflowed
    nobuf_by: tuple[int, ...] = ()      #: accepted but the buffer pool refused
    predicates_tested: int = 0          #: filters applied before resolution
    instructions_executed: int = 0      #: total interpreter steps (0 for JIT)

    @property
    def accepted(self) -> bool:
        return (
            bool(self.accepted_by)
            or bool(self.dropped_by)
            or bool(self.nobuf_by)
        )


@dataclass(eq=False)
class _Binding:
    """A port, its filter, and everything computed at bind time.

    Bindings compare by identity: a port is bound at most once, and
    ``detach``'s list removal and the reorder's before/after check must
    not compare every earlier binding field by field."""

    port: Port
    program: FilterProgram
    sequence: int
    report: ValidationReport | None = None
    compiled: CompiledFilter | None = None
    plan: tuple = ()
    """``CHECKED`` and ``PREVALIDATED``: the filter as the interpreter's
    loop runs it, decoded here rather than kept on the program, so a
    detached filter's plan goes with its binding."""
    accepts: int = 0
    entry: SetEntry | None = None
    """``Engine.IR``: this filter as the set compiler sees it, kept
    across compiles (the compiler reuses whatever it built for the same
    entries) and replaced only when the port's copy-all flag flips."""

    @property
    def order(self) -> tuple[int, int]:
        """Ascending sort = application order (priority high first)."""
        return (-self.program.priority, self.sequence)


class PacketFilterDemux:
    """Priority-ordered packet demultiplexer over a set of ports.

    ``Engine.IR`` is the section 7 decision table: the whole bound set
    compiles into one dispatch function (rebuilt after each
    bind/unbind — bind time, not packet time), so a received packet
    only visits filters whose necessary equality conditions it
    satisfies.  The other engines apply the figure 4-1 loop.

    ``flow_cache=True`` (or an explicit power-of-two size) memoizes
    classification per discriminating header prefix for any engine; the
    cache flushes through :meth:`invalidate` whenever the filter set,
    its order, or a port's copy-all flag changes, and disables itself
    while any bound filter uses indirect (computed-offset) loads, since
    those can read outside the bind-time key.
    """

    REORDER_INTERVAL = 64
    """Deliveries between busier-filter-first reorder passes."""

    def __init__(
        self,
        *,
        engine: Engine = Engine.CHECKED,
        mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
        level: LanguageLevel = LanguageLevel.CLASSIC,
        reorder_same_priority: bool = True,
        flow_cache: bool | int = False,
    ) -> None:
        # Accept the enum or its string value ("ir", "checked", ...):
        # every engine check below is an identity test, so a raw string
        # would silently degrade to the checked-interpreter fallback.
        self.engine = engine if isinstance(engine, Engine) else Engine(engine)
        self.mode = mode
        self.level = level
        self.reorder_same_priority = reorder_same_priority
        if flow_cache:
            size = (
                flow_cache
                if isinstance(flow_cache, int) and flow_cache is not True
                else FlowCache.DEFAULT_SIZE
            )
            self.flow_cache: FlowCache | None = FlowCache(size)
        else:
            self.flow_cache = None
        self._cache_usable = True
        self._cache_key_bytes = 0
        self._bindings: dict[int, _Binding] = {}  # port_id -> binding
        self._order: list[_Binding] = []          # application order
        self._ir: CompiledIRSet | None = None
        self._hot_classify = None
        self._reports: dict = {}
        self._stale = False
        self._sequence = 0
        self.packets_seen = 0
        self.packets_unclaimed = 0
        self.total_predicates_tested = 0

    # -- binding ----------------------------------------------------------

    def attach(self, port: Port) -> None:
        """Bind ``port`` (which must have a filter) into the demux.

        Validation happens here — bad programs raise
        :class:`repro.core.validator.ValidationError` out of the ioctl,
        never at packet time.  Rebinding an attached port's filter is
        done by detaching and attaching again (the device layer wraps
        this as the single SETFILTER ioctl).
        """
        if port.program is None:
            raise ValueError(f"port {port.port_id} has no filter bound")
        if port.port_id in self._bindings:
            raise ValueError(f"port {port.port_id} is already attached")
        binding = _Binding(
            port=port, program=port.program, sequence=self._sequence
        )
        self._sequence += 1
        # Structural validation happens for every engine — a program
        # the interpreter could only ever fault on is an ioctl error,
        # not a per-packet surprise.  Only the non-CHECKED engines
        # additionally *rely* on the report to skip runtime checks.
        binding.report = validate(
            port.program, level=self.level, mode=self.mode
        )
        if self.engine is Engine.COMPILED:
            binding.compiled = compile_filter(
                port.program, mode=self.mode, level=self.level
            )
        elif self.engine is not Engine.IR:
            binding.plan = decode_plan(port.program)
        self._bindings[port.port_id] = binding
        # Insertion keeps the list sorted in O(log n) comparisons plus
        # one memmove; a per-attach full sort re-evaluates the key for
        # every binding, which made a 10k-rule SETFILTER storm
        # quadratic in practice (tens of seconds at firewall scale).
        insort(self._order, binding, key=lambda b: b.order)
        self._invalidate()

    def detach(self, port: Port) -> None:
        binding = self._bindings.pop(port.port_id, None)
        if binding is None:
            raise ValueError(f"port {port.port_id} is not attached")
        self._order.remove(binding)
        self._invalidate()

    def attached_ports(self) -> list[Port]:
        return [binding.port for binding in self._order]

    def invalidate(self) -> None:
        """Recompute everything derived from the bound filter set.

        The device layer calls this when per-port state the compiled
        artifacts bake in changes out-of-band (a live copy-all flip);
        attach/detach/reorder route through it internally.
        """
        self._invalidate()

    def _invalidate(self) -> None:
        """The single choke point for order mutations.

        Every attach, detach and reorder lands here, so the compiled
        dispatch function and the flow cache can never disagree about
        the filter set: they go stale together.  Construction of the
        derived artifacts is deferred to the first classification
        (:meth:`_refresh`): binding N filters costs one validation
        each, not N whole-set recompilations — without the deferral, an
        ACL-scale SETFILTER storm is quadratic.  The stale compiled set
        stays as the one the next compile reuses from.
        """
        self._hot_classify = None
        self._stale = True
        if self.flow_cache is not None:
            self.flow_cache.invalidate()

    def _refresh(self) -> None:
        """Build whatever the last mutation tore down, exactly once."""
        if not self._stale:
            return
        self._stale = False
        if self.engine is Engine.IR:
            entries = []
            for binding in self._order:
                entry = binding.entry
                if entry is None:
                    entry = binding.entry = SetEntry(
                        binding.port.port_id,
                        binding.program,
                        binding.report,
                        binding.port.copy_all,
                    )
                elif entry.copy_all != binding.port.copy_all:
                    entry = binding.entry = replace(
                        entry, copy_all=binding.port.copy_all
                    )
                entries.append(entry)
            self._ir = compile_ir_set(entries, mode=self.mode, previous=self._ir)
            self._hot_classify = self._ir._root.function
        if self.flow_cache is not None:
            self._rekey_cache()

    def _rekey_cache(self) -> None:
        """Recompute the flow-cache key width: every byte any bound
        filter can statically read, from the bind-time reports (the
        deepest word's first byte, plus its second).  Indirect loads
        compute offsets at packet time — no bind-time prefix bounds
        them, so they disable the cache until the offending filter
        detaches."""
        reports = [binding.report for binding in self._order]
        touched = max(
            (report.max_packet_bytes_touched for report in reports), default=0
        )
        self._cache_usable = not any(
            report.needs_runtime_bounds_check for report in reports
        )
        self._cache_key_bytes = touched + 1 if touched else 0

    # -- the application loop (figure 4-1) ------------------------------------

    def deliver(
        self,
        packet: bytes,
        timestamp: float | None = None,
        packet_id: int | None = None,
    ) -> DeliveryReport:
        """Run the received packet through the filters; queue on accept.

        Returns the per-packet accounting the cost model charges for.
        A flow-cache hit skips classification entirely and reports zero
        predicates/instructions — the work genuinely not done.
        """
        if self._stale:
            self._refresh()
        ports: Sequence[int] | None = None
        predicates = instructions = 0
        cache = self.flow_cache
        key = None
        if cache is not None and self._cache_usable:
            key = bytes(packet[: self._cache_key_bytes])
            ports = cache.lookup(key)
        if ports is None:
            # The compiled whole-set engine's root function, called
            # here with no wrapper frame between.
            hot = self._hot_classify
            if hot is not None:
                ports, predicates = hot(packet, len(packet))
            else:
                ports, predicates, instructions = self._classify(packet)
            if key is not None:
                cache.store(key, tuple(ports))

        # Queue the classified packet and account for it — the
        # non-memoizable tail.
        self.packets_seen = seen = self.packets_seen + 1
        self.total_predicates_tested += predicates
        tick = (
            self.reorder_same_priority
            and seen % self.REORDER_INTERVAL == 0
        )

        # Fast path: at most one accepting filter — the overwhelming
        # steady-state case, and with a full queue the steady state of
        # every overload scenario.  No per-packet list churn, and since
        # DeliveryReport is frozen, identical outcomes share one cached
        # instance, keyed by the packet's fate (the report field its
        # port lands in, or none), instead of paying the (slow) frozen
        # dataclass constructor every packet.
        if len(ports) <= 1:
            if ports:
                binding = self._bindings[ports[0]]
                port = binding.port
                binding.accepts += 1
                if port.enqueue(packet, timestamp, packet_id):
                    fate = "accepted_by"
                elif port.last_drop_cause == "nobuf":
                    fate = "nobuf_by"
                else:
                    fate = "dropped_by"
                outcome = (port.port_id, predicates, instructions, fate)
            else:
                self.packets_unclaimed += 1
                outcome = (predicates, instructions)
            if tick:
                self._reorder()
            report = self._reports.get(outcome)
            if report is None:
                report = DeliveryReport(
                    predicates_tested=predicates,
                    instructions_executed=instructions,
                    **({fate: (port.port_id,)} if ports else {}),
                )
                if len(self._reports) < 4096:
                    self._reports[outcome] = report
            return report

        accepted_by, dropped_by, nobuf_by = [], [], []
        bindings = self._bindings
        for port_id in ports:
            binding = bindings[port_id]
            binding.accepts += 1
            if binding.port.enqueue(packet, timestamp, packet_id):
                accepted_by.append(binding.port.port_id)
            elif binding.port.last_drop_cause == "nobuf":
                nobuf_by.append(binding.port.port_id)
            else:
                dropped_by.append(binding.port.port_id)
        if tick:
            self._reorder()

        return DeliveryReport(
            accepted_by=tuple(accepted_by),
            dropped_by=tuple(dropped_by),
            nobuf_by=tuple(nobuf_by),
            predicates_tested=predicates,
            instructions_executed=instructions,
        )

    def cached_targets(self, packet: bytes) -> tuple[Port, ...] | None:
        """Flow-cache peek for admission control: the ports ``packet``'s
        cached classification would deliver to, or None when the cache
        cannot say (no cache, cache unusable, miss).

        Uses :meth:`FlowCache.peek`, so the hit/miss statistics of the
        real classification stay undistorted; an empty tuple is a
        *positive* answer (cached as matching no filter).
        """
        if self._stale:
            self._refresh()
        cache = self.flow_cache
        if cache is None or not self._cache_usable:
            return None
        ports = cache.peek(bytes(packet[: self._cache_key_bytes]))
        if ports is None:
            return None
        return tuple(self._bindings[port_id].port for port_id in ports)

    def deliver_batch(
        self,
        packets: Iterable[bytes],
        timestamp: float | None = None,
        packet_ids: Sequence[int | None] | None = None,
    ) -> list[DeliveryReport]:
        """Deliver a burst of packets in one call.

        The per-packet contract (ordering, copy-all, accounting) is
        identical to calling :meth:`deliver` in a loop; the point is
        the caller's side — the device layer charges its fixed dispatch
        overhead once per batch instead of once per packet, mirroring
        the section 6.4 batching argument on the read path.
        """
        packets = list(packets)
        if packet_ids is None:
            packet_ids = [None] * len(packets)
        elif len(packet_ids) != len(packets):
            raise ValueError(
                f"{len(packet_ids)} packet ids for {len(packets)} packets"
            )
        deliver = self.deliver
        return [
            deliver(packet, timestamp, pid)
            for packet, pid in zip(packets, packet_ids)
        ]

    def _classify(self, packet: bytes) -> tuple[Sequence[int], int, int]:
        """Which bindings accept ``packet``, and what it cost to learn,
        for the linear engines (``Engine.IR`` calls its compiled set's
        root function, ``_hot_classify``, from :meth:`deliver`).

        ``CHECKED`` and ``PREVALIDATED`` run each filter's plan through
        the interpreter's loop directly, with no result record between;
        ``PREVALIDATED`` runs it unchecked, since attach validated.
        Returns ``(ports, predicates, instructions)`` with the accepting
        port ids in delivery order — the memoizable core of
        :meth:`deliver`, independent of queueing."""
        ports: list[int] = []
        predicates = 0
        instructions = 0
        compiled = self.engine is _COMPILED
        prevalidated = self.engine is _PREVALIDATED
        push_result = self.mode is _PUSH_RESULT
        extended = self.level is _EXTENDED
        size = len(packet)
        for binding in self._order:
            predicates += 1
            if compiled:
                matched = binding.compiled.accepts(packet)
            elif prevalidated and size < binding.report.min_packet_bytes:
                # The one check the fast path still needs, done once per
                # (filter, packet) instead of once per PUSHWORD.
                continue
            else:
                matched, _, executed, _ = run_plan(
                    binding.plan, packet, push_result, extended,
                    not prevalidated,
                )
                instructions += executed
            if not matched:
                continue
            ports.append(binding.port.port_id)
            # "Normally, once a packet has been accepted ... it will not
            # be submitted to the filters of any other processes" unless
            # the accepting port opted into copy-all.
            if not binding.port.copy_all:
                break
        return ports, predicates, instructions

    def _reorder(self) -> None:
        """Busier-filters-first within each priority class (section 3.2).

        Only the relative order of *equal-priority* filters changes, so
        the reorder "occasionally" applied by the interpreter never
        alters which port wins when priorities differ.
        """
        before = list(self._order)
        self._order.sort(
            key=lambda b: (-b.program.priority, -b.accepts, b.sequence)
        )
        if self._order != before:
            self._invalidate()

    # -- statistics -------------------------------------------------------

    @property
    def mean_predicates_tested(self) -> float:
        """The section 6.1 statistic (paper measured 6.3)."""
        if self.packets_seen == 0:
            return 0.0
        return self.total_predicates_tested / self.packets_seen

    @property
    def ir_stats(self) -> IRStats | None:
        """Compiler statistics for the current IR set (None unless the
        IR engine is active and a set has been compiled)."""
        if self._stale and self.engine is Engine.IR:
            self._refresh()
        if self._ir is None:
            return None
        return self._ir.stats
