"""The packet-filter pseudo-device driver (section 4).

"The packet filter is implemented in 4.3BSD Unix as a 'character
special device' driver.  Just as the Unix terminal driver is layered
above communications device drivers to provide a uniform abstraction,
the packet filter is layered above network interface device drivers.
As with any character device driver, it is called from user code via
open, close, read, write, and ioctl system calls.  The packet filter is
called from the network interface drivers upon receipt of packets not
destined for kernel-resident protocols."

This module is that driver, for the simulated kernel:

* ``Open("pf")`` allocates a port (a minor device);
* ``Ioctl`` implements the whole section 3.3 control surface
  (:class:`repro.core.ioctl.PFIoctl`);
* ``Read`` returns queued packets — one per call, or all of them when
  batching is enabled (figure 3-5) — blocking per the port's timeout
  policy;
* ``Write`` transmits a complete frame, data-link header included,
  returning "once the packet is queued for transmission";
* :meth:`PacketFilterDevice.packet_arrived` is the interrupt-side hook
  the kernel's NIC linkage calls; it runs the figure 4-1 demultiplexer
  and charges the cost model for exactly the work done (per-filter
  dispatch, per-instruction interpretation, per-packet bookkeeping,
  the 70 µs ``microtime`` when timestamping is on).
"""

from __future__ import annotations

from typing import Any

from ..sim.errors import (
    BadFileDescriptor,
    DeviceBusy,
    InvalidArgument,
    WouldBlock,
)
from ..sim.kernel import DeviceDriver, DeviceHandle, SimKernel, WaitQueue
from ..sim.ledger import (
    Primitive,
    STAGE_COPY_OUT,
    STAGE_DEQUEUE,
    STAGE_ENQUEUE,
    STAGE_FILTER_EVAL,
    STAGE_SYSCALL_RETURN,
    STAGE_WAKEUP,
)
from ..sim.process import Ioctl, Process, Read, Write
from .demux import DeliveryReport, Engine, PacketFilterDemux
from .ioctl import DataLinkInfo, PFIoctl, PortStatus
from .port import Port, ReadTimeoutPolicy
from .program import FilterProgram
from .validator import ValidationError, validate

__all__ = ["PacketFilterDevice", "PacketFilterHandle"]

# Bound once, as in repro.sim.kernel: on Python 3.11 every
# ``Primitive.X`` load runs the enum metaclass's ``__getattr__`` hook.
_DROP_RESIZE = Primitive.DROP_RESIZE
_DROP_FLUSH = Primitive.DROP_FLUSH
_PF_FIXED = Primitive.PF_FIXED
_MICROTIME = Primitive.MICROTIME
_DROP_OVERFLOW = Primitive.DROP_OVERFLOW
_DROP_NOBUF = Primitive.DROP_NOBUF
_COPY = Primitive.COPY
_FILTER_BIND = Primitive.FILTER_BIND


def cache_gauge(demux: PacketFilterDemux, field: str):
    """A gauge reading one flow-cache statistic, robust to the cache
    being rebuilt (SETCOPYALL, attach churn) or turned off after
    publication."""

    def read() -> float:
        cache = demux.flow_cache
        return 0.0 if cache is None else float(getattr(cache, field))

    return read


def ir_gauge(demux: PacketFilterDemux, field: str):
    """A gauge reading one IR-compiler statistic; 0 until the first
    attach compiles the set (stats appear lazily)."""

    def read() -> float:
        stats = demux.ir_stats
        return 0.0 if stats is None else float(getattr(stats, field))

    return read


class PacketFilterDevice(DeviceDriver):
    """The driver: demultiplexer plus a table of open ports."""

    MAX_PORTS = 64
    """Ports open at once; the next ``Open`` fails with ``DeviceBusy``."""

    def __init__(self, host, **demux_options: Any) -> None:
        self.host = host
        self.kernel: SimKernel = host.kernel
        self.demux = PacketFilterDemux(**demux_options)
        self._handles: dict[int, PacketFilterHandle] = {}  # port_id -> handle
        self._next_port_id = 0
        self.packets_delivered = 0         #: packets handed to readers
        self.packets_dropped_overflow = 0  #: port-queue overflow drops
        self.kernel.register_rx_classifier(self._admission_full)
        publish = self.kernel.publish_gauges
        # Device-wide delivery/overflow counters: what the
        # receive-livelock watchdog computes its rates from.
        publish(
            "pf.",
            {
                "delivered": lambda: self.packets_delivered,
                "drop_overflow": lambda: self.packets_dropped_overflow,
            },
        )
        if self.demux.flow_cache is not None:
            publish(
                "pf.flowcache.",
                {
                    "hit_rate": cache_gauge(self.demux, "hit_rate"),
                    "hits": cache_gauge(self.demux, "hits"),
                    "misses": cache_gauge(self.demux, "misses"),
                    "invalidations": cache_gauge(self.demux, "invalidations"),
                },
            )
        if self.demux.engine is Engine.IR:
            publish(
                "pf.ir.",
                {
                    "nodes_before_cse": ir_gauge(self.demux, "nodes_before_cse"),
                    "nodes_after_cse": ir_gauge(self.demux, "nodes_after_cse"),
                    "dispatch_depth": ir_gauge(self.demux, "dispatch_depth"),
                },
            )

    def _admission_full(self, frame: bytes) -> bool:
        """Early-shed query for the kernel's admission control: does
        this frame's *cached* classification say every target port is
        already full (queue limit or pool share)?

        Unknown — no flow cache, a miss, or a cached no-match (the
        frame might still belong to a kernel-resident protocol) — is
        False: the kernel never sheds blind.
        """
        targets = self.demux.cached_targets(frame)
        if not targets:
            return False
        for port in targets:
            if port.queued < port.queue_limit and not (
                port.pool is not None and port.pool.at_share(port.pool_owner)
            ):
                return False
        return True

    # -- character-device entry points ------------------------------------

    def open(self, kernel: SimKernel, process: Process) -> "PacketFilterHandle":
        if len(self._handles) >= self.MAX_PORTS:
            raise DeviceBusy("all packet filter ports are in use")
        port = Port(self._next_port_id)
        port.on_drop = self._port_drop
        port.pool = kernel.buffer_pool
        self._next_port_id += 1
        handle = PacketFilterHandle(self, port, process)
        self._handles[port.port_id] = handle
        kernel.publish_gauges(
            f"pf.port{port.port_id}.", port.telemetry_gauges()
        )
        return handle

    def _release(self, handle: "PacketFilterHandle") -> None:
        """Tear one port down — close, process exit, or kill.

        Crash-safety happens here: detach the filter so the demux stops
        delivering, return every queued buffer to the shared pool, close
        the pending packets' ledger spans, and error out any reader
        still blocked on the port so a peer process can't wedge forever
        on a dead consumer's queue.
        """
        if handle.attached:
            self.demux.detach(handle.port)
            handle.attached = False
        pending = handle.port.teardown()
        ledger = self.kernel.ledger
        if ledger is not None:
            now = self.kernel.scheduler.now
            for packet in pending:
                if packet.packet_id is not None:
                    ledger.close_packet(packet.packet_id, "closed_port", now)
        self._handles.pop(handle.port.port_id, None)
        self.kernel.retract_gauges(f"pf.port{handle.port.port_id}.")
        handle.readers.fail_all(
            BadFileDescriptor(f"packet-filter port {handle.port.port_id} closed")
        )

    def _port_drop(self, packet, reason: str) -> None:
        """Port callback: a queued packet was discarded administratively
        (queue-limit shrink or FLUSH) — account the drop and close its
        span."""
        if reason == "resize":
            primitive, outcome = _DROP_RESIZE, "dropped_resize"
        else:
            primitive, outcome = _DROP_FLUSH, "flushed"
        self.kernel.account(
            primitive, component="pf", packet_id=packet.packet_id
        )
        ledger = self.kernel.ledger
        if ledger is not None and packet.packet_id is not None:
            ledger.close_packet(
                packet.packet_id, outcome, self.kernel.scheduler.now
            )

    # -- interrupt side -------------------------------------------------------

    def packet_arrived(
        self, nic, frame: bytes, packet_id: int | None = None
    ) -> bool:
        """NIC linkage hook: demultiplex one received frame.

        Returns True when some port accepted it (the kernel uses this
        to decide whether the frame went unclaimed).
        """
        kernel = self.kernel
        now = kernel.scheduler.now
        report = self.demux.deliver(frame, timestamp=now, packet_id=packet_id)
        if not self._settle(report, packet_id, now, True):
            return False
        woke = False
        for port_id in report.accepted_by:
            handle = self._handles[port_id]
            if len(handle.readers):
                woke = True
            handle.readers.wake_all()
            if handle.port.signal is not None:
                kernel.post_signal(handle.owner, handle.port.signal)
        ledger = kernel.ledger
        if woke and ledger is not None and packet_id is not None:
            ledger.stage(packet_id, STAGE_WAKEUP, kernel.scheduler.now)
        kernel.readiness_changed()
        return True

    def packets_arrived(
        self,
        nic,
        frames: list[bytes],
        packet_ids: list[int | None] | None = None,
    ) -> list[bool]:
        """Batched NIC linkage hook: demultiplex a burst in one call.

        Per-packet delivery semantics match ``len(frames)`` calls of
        :meth:`packet_arrived`, but the fixed dispatch overhead
        (``pf_fixed``) is charged once for the burst and reader wakeups,
        signals and select() readiness are coalesced to one notification
        per port — the section 6.4 batching argument applied to the
        receive path.  Returns one accepted-flag per frame.
        """
        if not frames:
            return []
        kernel = self.kernel
        ledger = kernel.ledger
        now = kernel.scheduler.now
        if packet_ids is None:
            packet_ids = [None] * len(frames)
        reports = self.demux.deliver_batch(
            frames, timestamp=now, packet_ids=packet_ids
        )

        kernel.account(_PF_FIXED, kernel.costs.pf_fixed, component="pf")
        notify: dict[int, "PacketFilterHandle"] = {}
        accepted_flags: list[bool] = []
        for report, pid in zip(reports, packet_ids):
            accepted_flags.append(self._settle(report, pid, now, False))
            for port_id in report.accepted_by:
                notify[port_id] = self._handles[port_id]

        woken_ports: set[int] = set()
        for port_id, handle in notify.items():
            if len(handle.readers):
                woken_ports.add(port_id)
            handle.readers.wake_all()
            if handle.port.signal is not None:
                kernel.post_signal(handle.owner, handle.port.signal)
        if ledger is not None and woken_ports:
            wake_at = kernel.scheduler.now
            for report, pid in zip(reports, packet_ids):
                if pid is not None and any(
                    port_id in woken_ports for port_id in report.accepted_by
                ):
                    ledger.stage(pid, STAGE_WAKEUP, wake_at)
        if notify:
            kernel.readiness_changed()
        return accepted_flags

    def _settle(
        self,
        report: DeliveryReport,
        packet_id: int | None,
        now: float,
        alone: bool,
    ) -> bool:
        """One demultiplexed frame's own share of the interrupt-side
        work: the filter work it cost (with ``pf_fixed`` when it came
        ``alone``, not in a burst), a ``microtime`` per timestamping
        port it reached, its overflow and no-buffer drops, and its span
        up to the enqueue (or the drop that ends it).  Returns whether
        some port accepted it."""
        kernel = self.kernel
        costs = kernel.costs
        ledger = kernel.ledger
        traced = ledger is not None and packet_id is not None
        kernel.charge_pf_input(
            report.predicates_tested,
            report.instructions_executed,
            packet_id,
            alone,
        )
        if traced:
            ledger.stage(packet_id, STAGE_FILTER_EVAL, now)
        for port_id in report.accepted_by:
            if self._handles[port_id].port.timestamping:
                kernel.account(
                    _MICROTIME, costs.microtime, component="pf",
                    packet_id=packet_id,
                )
        if traced and report.accepted_by:
            ledger.stage(packet_id, STAGE_ENQUEUE, now)
        self.packets_dropped_overflow += len(report.dropped_by)
        for port_id in report.dropped_by:
            kernel.account(
                _DROP_OVERFLOW, component="pf",
                packet_id=packet_id, flow=port_id,
            )
        for port_id in report.nobuf_by:
            kernel.account(
                _DROP_NOBUF, component="pf",
                packet_id=packet_id, flow=port_id,
            )
        if (
            traced
            and (report.dropped_by or report.nobuf_by)
            and not report.accepted_by
        ):
            outcome = (
                "dropped_overflow" if report.dropped_by else "dropped_nobuf"
            )
            ledger.close_packet(packet_id, outcome, now)
        if not report.accepted:
            return False
        return True


class PacketFilterHandle(DeviceHandle):
    """One open packet-filter port."""

    def __init__(
        self, device: PacketFilterDevice, port: Port, owner: Process
    ) -> None:
        self.device = device
        self.port = port
        self.owner = owner
        self.attached = False      # bound into the demux?
        self.write_batching = False
        self.readers = WaitQueue(device.kernel, component="pf")

    # -- read --------------------------------------------------------------

    def read(self, process: Process, call: Read) -> None:
        kernel = self.device.kernel
        size = call.size
        if size is not None and not (isinstance(size, int) and size >= 1):
            raise InvalidArgument(
                f"read size must be a positive packet count or None, not {size!r}"
            )
        if self.port.readable():
            limit = None if self.port.batching else 1
            if size is not None:
                limit = size if limit is None else min(limit, size)
            batch = self.port.read_packets(limit)
            self.device.packets_delivered += len(batch)
            ledger = kernel.ledger
            now = kernel.scheduler.now
            for packet in batch:
                if ledger is not None and packet.packet_id is not None:
                    ledger.stage(packet.packet_id, STAGE_DEQUEUE, now)
                nbytes = len(packet.data)
                copy_done = kernel.account(
                    _COPY, kernel.costs.copy_cost(nbytes), nbytes, "pf",
                    packet.packet_id,
                )
                if ledger is not None and packet.packet_id is not None:
                    ledger.stage(packet.packet_id, STAGE_COPY_OUT, copy_done)
            kernel.complete(process, batch)
            if ledger is not None:
                done_at = kernel.cpu_available_at
                for packet in batch:
                    if packet.packet_id is not None:
                        ledger.stage(
                            packet.packet_id, STAGE_SYSCALL_RETURN, done_at
                        )
                        ledger.close_packet(
                            packet.packet_id, "delivered", done_at
                        )
            return
        policy = self.port.read_policy
        if not policy.blocking:
            # Not a raise: a woken reader re-runs read() outside _syscall.
            kernel.fail(process, WouldBlock("no packets queued"))
            return
        self.readers.block(
            process,
            lambda proc: self.read(proc, call),
            timeout=policy.timeout,
        )

    def poll_readable(self) -> bool:
        return self.port.readable()

    # -- write ----------------------------------------------------------------

    def write(self, process: Process, call: Write) -> None:
        kernel = self.device.kernel
        frames = call.data
        if isinstance(frames, (bytes, bytearray)):
            frames = (bytes(frames),)
        elif not self.write_batching:
            raise InvalidArgument("multiple frames per write need SETWRITEBATCH")
        elif not (
            isinstance(frames, (list, tuple))
            and all(isinstance(frame, (bytes, bytearray)) for frame in frames)
        ):
            raise InvalidArgument(
                "a batched write takes a list or tuple of frames, each "
                f"bytes or bytearray, not {frames!r}"
            )

        link = self.device.host.link
        total = 0
        for frame in frames:
            if len(frame) < link.header_length:
                raise InvalidArgument("frame must include the data-link header")
            if len(frame) > link.max_frame_bytes:
                raise InvalidArgument(f"frame exceeds {link.name} maximum")
        for frame in frames:
            kernel.charge_pf_output(len(frame))
            kernel.network_output(self.device.host.nic, frame)
            total += len(frame)
        # "control returns to the user once the packet is queued for
        # transmission" — no blocking, no delivery guarantee.
        kernel.complete(process, total)

    # -- ioctl -------------------------------------------------------------------

    def ioctl(self, process: Process, call: Ioctl) -> None:
        kernel = self.device.kernel
        command, argument = call.command, call.argument
        result: Any = None

        if command == PFIoctl.SETFILTER:
            if not isinstance(argument, FilterProgram):
                raise InvalidArgument("SETFILTER needs a FilterProgram")
            demux = self.device.demux
            try:
                # Validate before touching the live binding (the attach
                # below validates once more, for its own report): bad
                # programs are an ioctl error, never a packet-time
                # surprise, and the old filter stays attached where it was.
                validate(argument, level=demux.level, mode=demux.mode)
            except ValidationError as exc:
                raise InvalidArgument(f"filter rejected: {exc}") from exc
            if self.attached:
                demux.detach(self.port)
                self.attached = False
            self.port.bind_filter(argument)
            demux.attach(self.port)
            self.attached = True
            kernel.account(
                _FILTER_BIND, kernel.costs.filter_bind,
                component="pf",
            )
        elif command == PFIoctl.SETTIMEOUT:
            if not isinstance(argument, ReadTimeoutPolicy):
                raise InvalidArgument("SETTIMEOUT needs a ReadTimeoutPolicy")
            self.port.read_policy = argument
        elif command == PFIoctl.SETSIGNAL:
            self.port.signal = argument
        elif command == PFIoctl.SETQUEUELEN:
            # Validate here, not in Port: a Port ValueError is a Python
            # exception, and anything but a SimError out of an ioctl
            # would crash the event loop instead of erroring the caller.
            try:
                limit = int(argument)
            except (TypeError, ValueError):
                raise InvalidArgument(
                    f"SETQUEUELEN needs an integer, got {argument!r}"
                ) from None
            if limit < 1:
                raise InvalidArgument(
                    f"queue limit must be at least 1, got {limit}"
                )
            self.port.set_queue_limit(limit)
        elif command == PFIoctl.SETTIMESTAMP:
            self.port.timestamping = bool(argument)
        elif command == PFIoctl.SETCOPYALL:
            changed = self.port.copy_all != bool(argument)
            self.port.copy_all = bool(argument)
            if changed and self.attached:
                # The compiled set and flow cache bake the copy-all
                # continuation in at bind time — re-derive them.
                self.device.demux.invalidate()
        elif command == PFIoctl.SETBATCH:
            self.port.batching = bool(argument)
        elif command == PFIoctl.SETWRITEBATCH:
            self.write_batching = bool(argument)
        elif command == PFIoctl.FLUSH:
            result = self.port.flush()
        elif command == PFIoctl.GETINFO:
            link = self.device.host.link
            result = DataLinkInfo(
                datalink_type=link.name,
                address_length=link.address_length,
                header_length=link.header_length,
                max_packet_bytes=link.max_frame_bytes,
                local_address=self.device.host.address,
                broadcast_address=link.broadcast,
            )
        elif command == PFIoctl.GETSTATS:
            result = PortStatus(
                queued=self.port.queued,
                accepted=self.port.stats.accepted,
                delivered=self.port.stats.delivered,
                dropped_queue_overflow=self.port.stats.dropped_overflow,
                dropped_ring=self.device.host.nic.frames_dropped,
                dropped_resize=self.port.stats.dropped_resize,
                dropped_nobuf=self.port.stats.dropped_nobuf,
            )
        else:
            raise InvalidArgument(f"unknown packet-filter ioctl {command!r}")

        kernel.complete(process, result)

    # -- close ----------------------------------------------------------------------

    def close(self, process: Process) -> None:
        self.device._release(self)
