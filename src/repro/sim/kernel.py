"""The simulated Unix-like kernel: syscalls, devices, scheduling, costs.

One :class:`SimKernel` is one host's operating system.  It owns:

* a **process table** of generator-coroutine processes
  (:mod:`repro.sim.process`) and the logic that resumes them, charging
  context switches when the CPU changes hands;
* a **syscall layer** (open/close/read/write/ioctl/select/pipe/
  sigwait/sleep/compute) that charges syscall overhead and counts
  domain crossings — the quantities of figure 2-1;
* a **character-device table**, the extension point the packet filter
  plugs into exactly as section 4 describes ("implemented ... as a
  'character special device' driver");
* the **network input/output hooks** the interface drivers call: a few
  lines of linkage that hand received frames to kernel-resident
  protocol handlers first and to the packet filter otherwise — the
  paper's "called from the network interface drivers upon receipt of
  packets not destined for kernel-resident protocols";
* a single-CPU **time accounting** model: every charged cost advances a
  CPU cursor, so concurrent activity serializes the way it would on the
  paper's uniprocessor VAXen.

The kernel never busy-waits: all progress is events on the shared
:class:`repro.sim.clock.EventScheduler`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from .clock import EventScheduler
from .costs import CostModel, MICROVAX_II
from .ledger import (
    Primitive,
    STAGE_INTERRUPT,
    apply_counters,
)
from .errors import (
    BadFileDescriptor,
    InvalidArgument,
    NoSuchDevice,
    ProcessKilled,
    SimError,
    SimTimeout,
)
from .process import (
    Close,
    Compute,
    Ioctl,
    Open,
    PipeCreate,
    Process,
    ProcessState,
    Read,
    Select,
    SigWait,
    Sleep,
    Syscall,
    Write,
)
from .stats import KernelStats

__all__ = ["SimKernel", "WaitQueue", "DeviceDriver", "DeviceHandle"]

# The enum members the per-event paths name, bound once: on Python 3.11
# every ``Primitive.X`` load runs the enum metaclass's ``__getattr__``
# hook, which costs more than the charge it labels.
_CONTEXT_SWITCH = Primitive.CONTEXT_SWITCH
_SYSCALL = Primitive.SYSCALL
_COMPUTE = Primitive.COMPUTE
_COPY = Primitive.COPY
_WAKEUP = Primitive.WAKEUP
_INTERRUPT = Primitive.INTERRUPT
_FRAME_RX = Primitive.FRAME_RX
_BUFFER = Primitive.BUFFER
_DRIVER_SEND = Primitive.DRIVER_SEND
_PF_FIXED = Primitive.PF_FIXED
_FILTER_PREDICATE = Primitive.FILTER_PREDICATE
_FILTER_INSTRUCTION = Primitive.FILTER_INSTRUCTION
_PF_SEND_FIXED = Primitive.PF_SEND_FIXED
_BLOCKED = ProcessState.BLOCKED
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING


def _duration(value: Any, what: str) -> float:
    """``value`` as a syscall's time argument: a finite, non-negative
    real, or :class:`InvalidArgument` for the calling process alone —
    anything else would rewind ``cpu_time``, poison it with NaN, park
    the clock at infinity or raise out of the event loop."""
    if isinstance(value, (int, float)) and 0 <= value < math.inf:
        return value
    raise InvalidArgument(
        f"{what} must be a finite, non-negative number, not {value!r}"
    )


def checked_payload(data: Any, limit: int | None = None) -> bytes:
    """``Write.data`` for a byte device: bytes or a bytearray of at most
    ``limit`` bytes, or :class:`InvalidArgument` for the calling process
    alone — ``bytes(5)`` would quietly send five zero bytes, and a str,
    a float or a negative count would raise out of the event loop."""
    if not isinstance(data, (bytes, bytearray)):
        raise InvalidArgument(f"a write takes bytes, not {type(data).__name__}")
    if limit is not None and len(data) > limit:
        raise InvalidArgument(
            f"{len(data)}-byte write exceeds the {limit}-byte limit"
        )
    return bytes(data)


def checked_read_size(size: Any) -> int | None:
    """``Read.size`` for a byte device: None (everything) or a byte
    count, or :class:`InvalidArgument` for the calling process alone."""
    if size is None or isinstance(size, int) and size >= 0:
        return size
    raise InvalidArgument(
        f"read size must be a byte count or None, not {size!r}"
    )


class DeviceDriver:
    """Base class for character-device drivers (the packet filter, the
    display of table 6-7, kernel sockets...).  ``open`` returns a
    per-descriptor :class:`DeviceHandle`."""

    def open(self, kernel: "SimKernel", process: Process) -> "DeviceHandle":
        raise NotImplementedError


class DeviceHandle:
    """One open descriptor of a device.

    Handlers *complete* or *block* the calling process through the
    kernel; they never return results directly, because completion may
    need to happen later and must be charged CPU time first.
    """

    def read(self, process: Process, call: Read) -> None:
        raise InvalidArgument("device does not support read")

    def write(self, process: Process, call: Write) -> None:
        raise InvalidArgument("device does not support write")

    def ioctl(self, process: Process, call: Ioctl) -> None:
        raise InvalidArgument("device does not support ioctl")

    def close(self, process: Process) -> None:
        pass

    def poll_readable(self) -> bool:
        """Non-blocking readiness probe; select() relies on it."""
        return False


class WaitQueue:
    """Processes blocked on one condition, with optional timeouts.

    The retry-based protocol keeps blocking logic in one place: a
    blocked operation is simply re-executed when the queue is woken,
    and either completes or blocks again.
    """

    def __init__(self, kernel: "SimKernel", component: str = "kernel") -> None:
        self._kernel = kernel
        self.component = component
        self._waiters: list[dict] = []
        # Register with the kernel so kill() can evict a victim from
        # every queue it might be parked on without the queues having
        # to know about each other.
        kernel._wait_queues.append(self)

    def __len__(self) -> int:
        return len(self._waiters)

    def block(
        self,
        process: Process,
        retry: Callable[[Process], None],
        *,
        timeout: float | None = None,
    ) -> None:
        """Park ``process``; ``retry(process)`` runs on wake.

        If ``timeout`` elapses first, the syscall fails with
        :class:`SimTimeout` instead.
        """
        process.state = _BLOCKED
        entry: dict = {"process": process, "retry": retry, "timer": None}
        if timeout is not None:
            entry["timer"] = self._kernel.scheduler.schedule(
                timeout, self._fire_timeout, entry
            )
        self._waiters.append(entry)

    def _fire_timeout(self, entry: dict) -> None:
        if entry not in self._waiters:
            return
        self._waiters.remove(entry)
        self._kernel.fail(entry["process"], SimTimeout())

    def wake_all(self) -> None:
        """Retry every parked operation (each may complete or re-block).

        The retry is *deferred* past the wakeup and context-switch
        latency rather than run instantly: a woken process only looks
        at the queue once it is actually running again, and packets
        keep arriving during that window — which is how read batches
        form at all (figure 3-5).
        """
        waiters, self._waiters = self._waiters, []
        kernel = self._kernel
        for entry in waiters:
            if entry["timer"] is not None:
                entry["timer"].cancel()
            kernel.account(_WAKEUP, kernel.costs.wakeup, 1, self.component)
            runs_at = kernel.cpu_available_at + kernel.costs.context_switch
            kernel.scheduler.schedule_at(runs_at, self._deferred_retry, entry)

    def _deferred_retry(self, entry: dict) -> None:
        process = entry["process"]
        if process.state is not _BLOCKED:
            return  # resolved some other way while the wake was in flight
        entry["retry"](process)

    def discard(self, process: Process) -> None:
        """Forget any parked operation of ``process`` (kill teardown):
        its timers are cancelled and its retries will never run."""
        kept = []
        for entry in self._waiters:
            if entry["process"] is process:
                if entry["timer"] is not None:
                    entry["timer"].cancel()
            else:
                kept.append(entry)
        self._waiters = kept

    def fail_all(self, error: SimError) -> None:
        """Fail every parked operation with ``error`` — the queue's
        condition can never come true again (its device closed, its
        peer died).  A blocked read must error out, not hang forever."""
        waiters, self._waiters = self._waiters, []
        kernel = self._kernel
        for entry in waiters:
            if entry["timer"] is not None:
                entry["timer"].cancel()
            process = entry["process"]
            if process.done:
                continue
            kernel.account(_WAKEUP, kernel.costs.wakeup, component=self.component)
            kernel.fail(process, error)


class SimKernel:
    """One simulated host kernel.  See the module docstring."""

    def __init__(
        self,
        scheduler: EventScheduler,
        costs: CostModel = MICROVAX_II,
        name: str = "host",
    ) -> None:
        self.scheduler = scheduler
        self.costs = costs
        self.name = name
        self.stats = KernelStats()
        #: optional :class:`repro.sim.ledger.Ledger`; None disables all
        #: event recording (the zero-overhead default).
        self.ledger = None
        self._ledger_packet: int | None = None  # packet being processed
        self.processes: dict[int, Process] = {}
        self._devices: dict[str, DeviceDriver] = {}
        self._ethertype_handlers: dict[int, Callable] = {}
        self._packet_filter = None      # the PF driver, when registered
        self.pf_sees_all = False        #: deliver even claimed frames to the PF
        self._nics: list = []
        self._next_pid = 1
        self._cpu_free_at = 0.0
        self._last_pid: int | None = None
        self._select_waiters: list[dict] = []
        self._sig_waiters: dict[int, Process] = {}
        self._wait_queues: list[WaitQueue] = []
        #: optional :class:`repro.sim.overload.RxPolicy`; None keeps the
        #: classic ungated interrupt-per-frame receive path.
        self.rx_policy = None
        #: optional :class:`repro.sim.overload.BufferPool` gating ring
        #: and port-queue admission; None = unbounded buffers.
        self.buffer_pool = None
        #: early-classification hook the packet-filter device registers:
        #: ``fn(frame) -> bool`` — True means every port this frame
        #: would reach is already full, so admission may shed it before
        #: any filter interpretation or copy happens.
        self._rx_classifier: Callable[[bytes], bool] | None = None
        #: optional :class:`repro.sim.telemetry.Telemetry`; None keeps
        #: the zero-overhead default (no sampler tick, no gauges read).
        self.telemetry = None
        #: gauges components published before (or without) telemetry
        #: being armed: ``(prefix, {name: fn})`` pairs.  One list
        #: append per component, never per packet.
        self._gauge_providers: list[tuple[str, dict]] = []

    # ------------------------------------------------------------------
    # telemetry gauge publication
    # ------------------------------------------------------------------

    def publish_gauges(
        self,
        prefix: str,
        gauges: dict[str, Callable[[], float]],
    ) -> None:
        """Offer named gauge callables to the world's telemetry sampler.

        Components (NIC, ports, buffer pool, RTO timers) call this at
        creation time; the callables are buffered here so the sampler
        never has to import the layers it observes.  With no telemetry
        armed this is a single list append — the free-when-off contract.
        """
        self._gauge_providers.append((prefix, gauges))
        if self.telemetry is not None:
            self.telemetry.register_gauges(self.name, prefix, gauges)

    def retract_gauges(self, prefix: str) -> None:
        """Withdraw every gauge published under ``prefix`` (port close:
        the callables must not outlive the object they read)."""
        self._gauge_providers = [
            provider
            for provider in self._gauge_providers
            if not provider[0].startswith(prefix)
        ]
        if self.telemetry is not None:
            self.telemetry.retract_gauges(self.name, prefix)

    # ------------------------------------------------------------------
    # CPU time accounting
    # ------------------------------------------------------------------

    def account(
        self,
        primitive: Primitive,
        cost: float = 0.0,
        quantity: int = 1,
        component: str = "kernel",
        packet_id: int | None = None,
        flow: Any = None,
    ) -> float:
        """Charge ``cost`` attributed to ``primitive`` and bump the
        counters it stands for; returns when the CPU frees.

        The live ``stats`` update and the ledger event are emitted
        together, so they can never drift apart (the reconciliation
        invariant of ``tests/sim/test_ledger.py``).  With no ledger
        attached the extra work is a single ``None`` check.  The
        receive, filter and send paths and the syscall entry book their
        fixed primitives through one fold each instead
        (:meth:`_frame_in`, :meth:`charge_pf_input`,
        :meth:`charge_pf_output`, :meth:`network_output`,
        :meth:`_syscall`): the same cursor sum, ``cpu_time``
        additions, counters and ledger events as one ``account`` call
        per primitive, in the same order, with the counter bumps that
        :func:`apply_counters` would make written out.  The per-packet
        callers pass their arguments positionally: a keyword costs more
        than the arithmetic.
        """
        now = self.scheduler.now  # charge(), inlined: ~4 times a packet
        free = self._cpu_free_at
        end = self._cpu_free_at = (now if now > free else free) + cost
        stats = self.stats
        stats.cpu_time += cost
        apply_counters(stats, primitive, quantity)
        if self.ledger is not None:
            if packet_id is None:
                packet_id = self._ledger_packet
            self.ledger.record(
                primitive,
                host=self.name,
                at=now,
                cost=cost,
                quantity=quantity,
                component=component,
                packet_id=packet_id,
                flow=flow,
            )
        return end

    def charge_copy(self, nbytes: int, *, component: str = "kernel") -> float:
        return self.account(
            _COPY, self.costs.copy_cost(nbytes), quantity=nbytes, component=component
        )

    def charge_pf_input(
        self,
        predicates: int,
        instructions: int,
        packet_id: int | None,
        fixed: bool,
    ) -> None:
        """One frame's demultiplexing, as the packet filter books it:
        ``pf_fixed`` when the frame came alone (``fixed``; a burst pays
        it once, through :meth:`account`), then the ``predicates``
        filters applied and the ``instructions`` interpreted, each only
        when nonzero.  A fold of those ``account`` calls (see there)."""
        if not (fixed or predicates or instructions):
            return
        costs = self.costs
        now = self.scheduler.now
        free = self._cpu_free_at
        end = now if now > free else free
        stats = self.stats
        if fixed:
            pf_fixed = costs.pf_fixed
            end += pf_fixed
            stats.cpu_time += pf_fixed
        if predicates:
            dispatch = costs.filter_cost(predicates, 0)
            end += dispatch
            stats.cpu_time += dispatch
            stats.filter_predicates += predicates
        if instructions:
            interpret = costs.filter_cost(0, instructions)
            end += interpret
            stats.cpu_time += interpret
            stats.filter_instructions += instructions
        self._cpu_free_at = end
        ledger = self.ledger
        if ledger is not None:
            host = self.name
            if packet_id is None:
                packet_id = self._ledger_packet
            if fixed:
                ledger.record(
                    _PF_FIXED, host=host, at=now, cost=pf_fixed,
                    component="pf", packet_id=packet_id,
                )
            if predicates:
                ledger.record(
                    _FILTER_PREDICATE, host=host, at=now, cost=dispatch,
                    quantity=predicates, component="pf", packet_id=packet_id,
                )
            if instructions:
                ledger.record(
                    _FILTER_INSTRUCTION, host=host, at=now, cost=interpret,
                    quantity=instructions, component="pf", packet_id=packet_id,
                )

    def charge_pf_output(self, nbytes: int) -> None:
        """A packet-filter write's own share of one ``nbytes`` frame:
        ``pf_send_fixed`` and the user-to-kernel copy, before
        :meth:`network_output` books the driver's.  A fold of those
        ``account`` calls (see there)."""
        costs = self.costs
        send = costs.pf_send_fixed
        copy = costs.copy_cost(nbytes)
        now = self.scheduler.now
        free = self._cpu_free_at
        self._cpu_free_at = (now if now > free else free) + send + copy
        stats = self.stats
        stats.cpu_time += send
        stats.cpu_time += copy
        stats.copies += 1
        stats.bytes_copied += nbytes
        ledger = self.ledger
        if ledger is not None:
            host, packet_id = self.name, self._ledger_packet
            ledger.record(
                _PF_SEND_FIXED, host=host, at=now, cost=send,
                component="pf", packet_id=packet_id,
            )
            ledger.record(
                _COPY, host=host, at=now, cost=copy, quantity=nbytes,
                component="pf", packet_id=packet_id,
            )

    @property
    def cpu_available_at(self) -> float:
        return max(self.scheduler.now, self._cpu_free_at)

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------

    def register_device(self, name: str, driver: DeviceDriver) -> None:
        if name in self._devices:
            raise ValueError(f"device {name!r} already registered")
        self._devices[name] = driver

    def device(self, name: str) -> DeviceDriver:
        try:
            return self._devices[name]
        except KeyError:
            raise NoSuchDevice(name) from None

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def spawn(self, name: str, body) -> Process:
        """Create a process from a generator; it starts at current time."""
        process = Process(self._next_pid, name, body)
        self._next_pid += 1
        self.processes[process.pid] = process
        self.scheduler.schedule_at(
            self.cpu_available_at, self._resume, process, None, None
        )
        return process

    def complete(self, process: Process, value: Any) -> None:
        """Finish the in-flight syscall of ``process`` with ``value``."""
        if process.done:
            return  # e.g. a timer firing after the process was killed
        was_blocked = process.state is _BLOCKED
        process.state = _READY
        now = self.scheduler.now
        free = self._cpu_free_at
        self.scheduler.schedule_at(
            now if now > free else free, self._resume, process, value, None,
            was_blocked,
        )

    def _wake(self, process: Process) -> None:
        """A sleep timer fired: :meth:`complete` the sleep — but when the
        CPU is free and no live event is due at or before now, the
        ``_resume`` that would schedule is by definition the next event,
        so run it inside this one instead."""
        if process.done:
            return  # killed while asleep
        now = self.scheduler.now
        if self._cpu_free_at <= now:
            head = self.scheduler.next_time()
            if head is None or head > now:
                self._resume(process, None, None, process.state is _BLOCKED)
                return
        self.complete(process, None)

    def fail(self, process: Process, error: SimError) -> None:
        """Finish the in-flight syscall by raising ``error`` in-process."""
        if process.done:
            return
        was_blocked = process.state is _BLOCKED
        process.state = _READY
        self.scheduler.schedule_at(
            self.cpu_available_at, self._resume, process, None, error,
            was_blocked,
        )

    def kill(self, process: Process) -> None:
        """Forcibly terminate ``process`` — the simulated SIGKILL.

        The crash-safety contract: after ``kill`` returns, no wait queue
        or select list holds the victim, its generator body has been
        closed (``finally`` blocks ran), and every fd it owned has been
        closed — which is what detaches its filters, returns its port
        queues to the buffer pool, and errors any peer blocked on it.
        A crashed consumer must never leak buffers or wedge the demux.
        """
        if process.done:
            return
        error = ProcessKilled(f"{process.name} (pid {process.pid}) killed")
        for queue in self._wait_queues:
            queue.discard(process)
        kept = []
        for entry in self._select_waiters:
            if entry["process"] is process:
                if entry["timer"] is not None:
                    entry["timer"].cancel()
            else:
                kept.append(entry)
        self._select_waiters = kept
        self._sig_waiters.pop(process.pid, None)
        try:
            process.body.close()
        except Exception:
            pass  # a body that dies in its finally is already dead
        self._finish(process, ProcessState.FAILED, error=error)

    def _resume(
        self,
        process: Process,
        value: Any,
        error: SimError | None,
        was_blocked: bool = False,
    ) -> None:
        if process.done:
            return
        # A context switch happens when the CPU changes processes — and
        # also whenever a *blocked* process resumes, because waking from
        # tsleep() goes through swtch() even on an otherwise idle system.
        # §6.5.1's best case ("the receiving process will never be
        # suspended, and no context switches take place") is the case
        # where reads find data queued and never block at all.
        if was_blocked or (
            self._last_pid is not None and self._last_pid != process.pid
        ):
            self.account(_CONTEXT_SWITCH, self.costs.context_switch, 1, "sched")
        self._last_pid = process.pid
        process.state = _RUNNING
        try:
            if error is not None:
                call = process.body.throw(error)
            else:
                call = process.body.send(value)
        except StopIteration as stop:
            self._finish(process, ProcessState.DONE, result=stop.value)
            return
        except Exception as exc:
            # The process let an error escape (a kernel error or its own
            # bug): it dies with it, and the world keeps running — one
            # crashing process must never take the simulation down.
            self._finish(process, ProcessState.FAILED, error=exc)
            return
        self._syscall(process, call)

    def _finish(self, process, state, result=None, error=None) -> None:
        process.state = state
        process.done = True
        process.result = result
        process.error = error
        process.finished_at = self.scheduler.now
        for fd in list(process.fds):
            self._close_fd(process, fd)

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------

    def _syscall(self, process: Process, call: Syscall) -> None:
        if not isinstance(call, Syscall):
            self.fail(
                process,
                InvalidArgument(f"process yielded non-syscall {call!r}"),
            )
            return
        # ``account(_SYSCALL, costs.syscall)``, written out (see
        # :meth:`account`).
        cost = self.costs.syscall
        now = self.scheduler.now
        free = self._cpu_free_at
        self._cpu_free_at = (now if now > free else free) + cost
        stats = self.stats
        stats.cpu_time += cost
        stats.syscalls += 1
        stats.domain_crossings += 2
        ledger = self.ledger
        if ledger is not None:
            ledger.record(
                _SYSCALL, host=self.name, at=now, cost=cost,
                component="kernel", packet_id=self._ledger_packet,
            )

        try:
            if isinstance(call, Read):
                self._handle_of(process, call.fd).read(process, call)
            elif isinstance(call, Write):
                self._handle_of(process, call.fd).write(process, call)
            elif isinstance(call, Sleep):
                duration = _duration(call.duration, "sleep duration")
                process.state = _BLOCKED
                self.scheduler.schedule(duration, self._wake, process)
            elif isinstance(call, Ioctl):
                self._handle_of(process, call.fd).ioctl(process, call)
            elif isinstance(call, Compute):
                duration = _duration(call.duration, "compute duration")
                self.account(_COMPUTE, duration, component="user")
                self.complete(process, None)
            elif isinstance(call, Select):
                self._select(process, call)
            elif isinstance(call, Open):
                driver = self.device(call.path)
                handle = driver.open(self, process)
                self.complete(process, process.allocate_fd(handle))
            elif isinstance(call, Close):
                self._close_fd(process, call.fd)
                self.complete(process, None)
            elif isinstance(call, PipeCreate):
                self._make_pipe(process)
            elif isinstance(call, SigWait):
                self._sigwait(process)
            else:
                raise InvalidArgument(f"unknown syscall {call!r}")
        except SimError as exc:
            self.fail(process, exc)

    def _handle_of(self, process: Process, fd: int) -> DeviceHandle:
        try:
            return process.fds[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd} in {process.name}") from None

    def _close_fd(self, process: Process, fd: int) -> None:
        handle = process.fds.pop(fd, None)
        if handle is None:
            raise BadFileDescriptor(f"fd {fd} in {process.name}")
        handle.close(process)

    # ------------------------------------------------------------------
    # select
    # ------------------------------------------------------------------

    def _select(self, process: Process, call: Select) -> None:
        timeout = call.timeout
        if timeout is not None:
            timeout = _duration(timeout, "select timeout")
        ready = self._ready_fds(process, call.read_fds)
        if ready:
            self.complete(process, ready)
            return
        if timeout == 0:
            self.complete(process, [])
            return
        process.state = _BLOCKED
        entry: dict = {"process": process, "call": call, "timer": None}
        if timeout is not None:
            entry["timer"] = self.scheduler.schedule(
                timeout, self._select_timeout, entry
            )
        self._select_waiters.append(entry)

    def _ready_fds(self, process: Process, fds: Iterable[int]) -> list[int]:
        ready = []
        for fd in fds:
            handle = self._handle_of(process, fd)
            if handle.poll_readable():
                ready.append(fd)
        return ready

    def _select_timeout(self, entry: dict) -> None:
        if entry not in self._select_waiters:
            return
        self._select_waiters.remove(entry)
        self.complete(entry["process"], [])

    def readiness_changed(self) -> None:
        """Devices call this after new data arrives; wakes select()ors."""
        if not self._select_waiters:
            return
        still_waiting = []
        for entry in self._select_waiters:
            ready = self._ready_fds(entry["process"], entry["call"].read_fds)
            if ready:
                if entry["timer"] is not None:
                    entry["timer"].cancel()
                self.account(_WAKEUP, self.costs.wakeup, component="select")
                self.complete(entry["process"], ready)
            else:
                still_waiting.append(entry)
        self._select_waiters = still_waiting

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def post_signal(self, process: Process, signal: int) -> None:
        """Deliver ``signal`` to ``process`` (the SETSIGNAL facility)."""
        self.account(Primitive.SIGNAL, component="signal")
        process.pending_signals.append(signal)
        waiter = self._sig_waiters.pop(process.pid, None)
        if waiter is not None:
            self.account(_WAKEUP, self.costs.wakeup, component="signal")
            self.complete(process, process.pending_signals.pop(0))

    def _sigwait(self, process: Process) -> None:
        if process.pending_signals:
            self.complete(process, process.pending_signals.pop(0))
            return
        process.state = _BLOCKED
        self._sig_waiters[process.pid] = process

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------

    def _make_pipe(self, process: Process) -> None:
        from .pipe import Pipe  # local import avoids a cycle

        pipe = Pipe(self)
        read_fd = process.allocate_fd(pipe.read_end)
        write_fd = process.allocate_fd(pipe.write_end)
        self.complete(process, (read_fd, write_fd))

    def share_fd(self, owner: Process, fd: int, other: Process) -> int:
        """Duplicate ``owner``'s descriptor into ``other``'s fd table —
        the stand-in for fork-then-inherit, which a generator-based
        process model cannot express directly."""
        handle = self._handle_of(owner, fd)
        retain = getattr(handle, "retain", None)
        if retain is not None:
            retain()
        return other.allocate_fd(handle)

    # ------------------------------------------------------------------
    # network linkage (what each interface driver gets patched with)
    # ------------------------------------------------------------------

    def attach_nic(self, nic) -> None:
        nic.kernel = self
        self._nics.append(nic)
        # Second and later interfaces get an index so series names stay
        # unique ("nic.ring_depth", "nic1.ring_depth", ...).
        index = len(self._nics) - 1
        prefix = "nic." if index == 0 else f"nic{index}."
        self.publish_gauges(prefix, nic.telemetry_gauges())

    def register_ethertype(self, ethertype: int, handler: Callable) -> None:
        """Claim a data-link type for a kernel-resident protocol.

        ``handler(nic, frame)`` runs at interrupt level; its costs are
        its own business (the IP stack charges ip_input etc.)."""
        if ethertype in self._ethertype_handlers:
            raise ValueError(f"ethertype {ethertype:#06x} already claimed")
        self._ethertype_handlers[ethertype] = handler

    def register_packet_filter(self, driver) -> None:
        """Install the packet-filter pseudo-device's input hook."""
        self._packet_filter = driver

    def register_rx_classifier(
        self, classifier: Callable[[bytes], bool] | None
    ) -> None:
        """Install the early-classification admission hook.

        The packet-filter device registers its flow-cache peek here:
        ``classifier(frame) -> True`` means every port this frame's
        cached classification would reach is already full, so
        :meth:`admit_frame` may shed it at the ring — before filter
        interpretation, before any copy, before even a buffer is taken.
        """
        self._rx_classifier = classifier

    def admit_frame(self, nic, frame: bytes, depth: int) -> Primitive | None:
        """Admission control at ring enqueue — pre-filter, pre-copy.

        The NIC has already refused a frame its full ring cannot hold
        (``DROP_RING``); this decides the rest, given the ``depth`` of
        frames already in that ring.  Returns ``None`` to admit (when a
        :class:`BufferPool <repro.sim.overload.BufferPool>` is installed
        the frame now holds one ``("ring", host)`` reservation, which
        the NIC releases as it drains the slot), or the drop primitive
        to account the refusal under:

        * ``DROP_SHED`` — the overload policy shed it early: ring
          occupancy past ``shed_watermark``, or the registered
          classifier says every cached target port is full (both only
          while the interface is in polling mode — under light load
          frames are never shed);
        * ``DROP_NOBUF`` — the shared buffer pool cannot cover a slot.
        """
        policy = self.rx_policy
        if policy is not None and nic.polling:
            if (
                policy.shed_watermark is not None
                and depth >= policy.shed_watermark
            ):
                return Primitive.DROP_SHED
            if self._rx_classifier is not None and self._rx_classifier(frame):
                return Primitive.DROP_SHED
        pool = self.buffer_pool
        if pool is not None and not pool.reserve(("ring", self.name)):
            return Primitive.DROP_NOBUF
        return None

    def network_input(
        self, nic, frame: bytes, packet_id: int | None = None
    ) -> None:
        """Receive interrupt: the 'few dozen lines of linkage code'.

        ``packet_id`` is the ledger span the NIC opened at wire arrival;
        when the ledger is on and no span exists yet (a frame injected
        straight into the kernel), one is opened here.
        """
        ethertype = nic.link.ethertype_of(frame)
        ledger = self.ledger
        if ledger is not None and packet_id is None:
            packet_id = ledger.begin_packet(
                self.name, at=self.scheduler.now, flow=ethertype, stage=None
            )
        self._frame_in(frame, packet_id, True, ethertype)  # its own interrupt
        claimed = self._claim(nic, frame, ethertype, packet_id)
        pf_took = False
        if self._packet_filter is not None and (not claimed or self.pf_sees_all):
            pf_took = self._packet_filter.packet_arrived(
                nic, frame, packet_id=packet_id
            )
        if not pf_took:  # else the span stays open until read via the PF
            self._not_taken(packet_id, claimed)

    def _frame_in(
        self,
        frame: bytes,
        packet_id: int | None,
        interrupt: bool,
        flow: Any = None,
    ) -> None:
        """One frame's own share of a receive interrupt, whether the
        interrupt serviced it alone or in a burst: the frame count, its
        buffer handling and the span's interrupt stage — preceded, when
        it came alone (``interrupt``), by the interrupt service itself,
        attributed to ``flow``.  A fold of those ``account`` calls (see
        there)."""
        costs = self.costs
        nbytes = len(frame)
        buffer = costs.buffer_cost(nbytes)
        now = self.scheduler.now
        free = self._cpu_free_at
        end = now if now > free else free
        stats = self.stats
        if interrupt:
            service = costs.interrupt_service
            end += service
            stats.cpu_time += service
            stats.interrupts += 1
        # FRAME_RX costs 0.0, and adding 0.0 to a non-negative sum
        # changes no bit, so only the buffer handling is added.
        self._cpu_free_at = end + buffer
        stats.cpu_time += buffer
        stats.frames_received += 1
        ledger = self.ledger
        if ledger is not None:
            host = self.name
            charged = self._ledger_packet if packet_id is None else packet_id
            if interrupt:
                ledger.record(
                    _INTERRUPT, host=host, at=now, cost=service,
                    component="nic", packet_id=charged, flow=flow,
                )
            ledger.record(
                _FRAME_RX, host=host, at=now, component="nic",
                packet_id=charged,
            )
            ledger.record(
                _BUFFER, host=host, at=now, cost=buffer, quantity=nbytes,
                component="nic", packet_id=charged,
            )
            ledger.stage(packet_id, STAGE_INTERRUPT, now)

    def _claim(
        self, nic, frame: bytes, ethertype: int, packet_id: int | None
    ) -> bool:
        """Run the kernel-resident protocol registered for ``ethertype``,
        if any, with its charges attributed to ``packet_id``; True when
        one claimed the frame."""
        handler = self._ethertype_handlers.get(ethertype)
        if handler is None:
            return False
        previous = self._ledger_packet
        self._ledger_packet = packet_id
        try:
            handler(nic, frame)
        finally:
            self._ledger_packet = previous
        return True

    def _not_taken(self, packet_id: int | None, claimed: bool) -> None:
        """Settle a frame the packet filter did not keep: it went to a
        kernel-resident protocol, or nobody wanted it and it counts."""
        if not claimed:
            self.account(Primitive.UNCLAIMED, component="nic", packet_id=packet_id)
        if self.ledger is not None:
            outcome = "kernel_protocol" if claimed else "unclaimed"
            self.ledger.close_packet(packet_id, outcome, self.scheduler.now)

    def network_input_batch(
        self,
        nic,
        frames: list[bytes],
        packet_ids: list[int | None] | None = None,
    ) -> None:
        """Receive interrupt for a burst of frames.

        The section 6.4 batching argument applied to input: one
        interrupt-service charge covers the whole burst (buffer
        handling stays per-frame), and every frame bound for the packet
        filter goes down in a single :meth:`packets_arrived` call so
        the filter's fixed dispatch overhead is also charged once.
        Per-frame semantics — ethertype claiming, unclaimed counting —
        are identical to ``len(frames)`` calls of :meth:`network_input`.
        """
        if not frames:
            return
        ledger = self.ledger
        if packet_ids is None:
            packet_ids = [None] * len(frames)
        ethertypes = [nic.link.ethertype_of(frame) for frame in frames]
        if ledger is not None:
            packet_ids = [
                pid
                if pid is not None
                else ledger.begin_packet(
                    self.name,
                    at=self.scheduler.now,
                    flow=ethertype,
                    stage=None,
                )
                for pid, ethertype in zip(packet_ids, ethertypes)
            ]
        self.account(_INTERRUPT, self.costs.interrupt_service, component="nic")
        # Every frame's own share is charged before any protocol runs,
        # as the interrupt handler takes the burst off the ring first.
        for frame, pid in zip(frames, packet_ids):
            self._frame_in(frame, pid, False)  # the burst's interrupt is paid
        pf = self._packet_filter
        pf_frames: list[bytes] = []
        pf_claimed: list[bool] = []
        pf_ids: list[int | None] = []
        for frame, ethertype, pid in zip(frames, ethertypes, packet_ids):
            claimed = self._claim(nic, frame, ethertype, pid)
            if pf is not None and (not claimed or self.pf_sees_all):
                pf_frames.append(frame)
                pf_claimed.append(claimed)
                pf_ids.append(pid)
            else:
                self._not_taken(pid, claimed)
        if pf_frames:
            accepted = pf.packets_arrived(nic, pf_frames, packet_ids=pf_ids)
            for took, was_claimed, pid in zip(accepted, pf_claimed, pf_ids):
                if not took:
                    self._not_taken(pid, was_claimed)

    def network_output(self, nic, frame: bytes) -> None:
        """Queue a frame for transmission (driver side): the driver's
        send cost and the frame's buffer handling, in one fold of those
        ``account`` calls (see there)."""
        costs = self.costs
        send = costs.driver_send
        nbytes = len(frame)
        buffer = costs.buffer_cost(nbytes)
        now = self.scheduler.now
        free = self._cpu_free_at
        self._cpu_free_at = (now if now > free else free) + send + buffer
        stats = self.stats
        stats.cpu_time += send
        stats.cpu_time += buffer
        stats.frames_sent += 1
        ledger = self.ledger
        if ledger is not None:
            host, packet_id = self.name, self._ledger_packet
            ledger.record(
                _DRIVER_SEND, host=host, at=now, cost=send,
                component="driver", packet_id=packet_id,
            )
            ledger.record(
                _BUFFER, host=host, at=now, cost=buffer, quantity=nbytes,
                component="driver", packet_id=packet_id,
            )
        nic.transmit(frame)
