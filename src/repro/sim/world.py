"""A world: the clock, one Ethernet segment, and the hosts on it.

Every test, example and benchmark builds one of these.  A world is
completely deterministic: same construction, same outcome, always.
"""

from __future__ import annotations

from ..net.ethernet import ETHERNET_10MB, LinkSpec
from ..net.nic import DEFAULT_INPUT_QUEUE
from .clock import EventScheduler
from .costs import MICROVAX_II, CostModel
from .host import Host
from .ledger import Ledger
from .process import Process
from .telemetry import Telemetry

__all__ = ["World"]

MAX_EVENTS = 5_000_000
"""Events a run fires at most: a runaway simulation stops, not hangs."""


class World:
    """The whole simulation: scheduler + segment + hosts."""

    def __init__(
        self,
        link: LinkSpec = ETHERNET_10MB,
        costs: CostModel = MICROVAX_II,
        *,
        seed: int = 0,
        chaos=None,
        ledger: bool = False,
        telemetry: bool = False,
    ) -> None:
        from ..net.medium import EthernetSegment

        self.link = link
        self.costs = costs
        #: the seed the segment's chaos streams derive from.
        self.seed = seed
        self.scheduler = EventScheduler()
        self.segment = EthernetSegment(self.scheduler, link, seed=seed)
        if chaos is not None:
            # A repro.net.ChaosConfig — the segment's one fault model:
            # loss, reordering jitter, corruption, duplication — applied
            # to every direction.
            self.segment.set_chaos(chaos)
        self.hosts: list[Host] = []
        #: one shared charge ledger for the whole world (None = off, the
        #: zero-overhead default); see :mod:`repro.sim.ledger`.
        self.ledger: Ledger | None = None
        if ledger:
            self.enable_ledger()
        #: one telemetry sampler for the whole world (None = off, the
        #: zero-overhead default); see :mod:`repro.sim.telemetry`.
        self.telemetry: Telemetry | None = None
        if telemetry:
            self.enable_telemetry()

    def enable_ledger(self) -> Ledger:
        """Attach a charge ledger to the segment and every host (current
        and future); idempotent, returns the ledger."""
        if self.ledger is None:
            self.ledger = Ledger()
            self.segment.ledger = self.ledger
            for host in self.hosts:
                host.kernel.ledger = self.ledger
        return self.ledger

    def enable_telemetry(self) -> Telemetry:
        """Arm the live-telemetry sampler on every host (current and
        future), with the built-in detector set (receive livelock, pool
        exhaustion, poll-mode residency, RTO backoff storms) on each;
        idempotent, returns the :class:`Telemetry`."""
        if self.telemetry is None:
            self.telemetry = Telemetry(self.scheduler)
            for host in self.hosts:
                self.telemetry.attach_host(host.kernel)
            self.telemetry.arm()
        return self.telemetry

    @property
    def now(self) -> float:
        return self.scheduler.now

    def host(
        self,
        name: str,
        address: bytes | None = None,
        *,
        promiscuous: bool = False,
        costs: CostModel | None = None,
        input_queue_limit: int = DEFAULT_INPUT_QUEUE,
    ) -> Host:
        """Add a host; addresses default to 1, 2, 3... station numbers."""
        if address is None:
            station = len(self.hosts) + 1
            address = station.to_bytes(self.link.address_length, "big")
        host = Host(
            name,
            address,
            self.link,
            self.scheduler,
            costs or self.costs,
            promiscuous=promiscuous,
            input_queue_limit=input_queue_limit,
        )
        self.segment.attach(host.nic)
        if self.ledger is not None:
            host.kernel.ledger = self.ledger
        if self.telemetry is not None:
            self.telemetry.attach_host(host.kernel)
        self.hosts.append(host)
        return host

    # -- running ----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Fire events until quiescent (or ``until``, or
        :data:`MAX_EVENTS`); returns the time."""
        return self.scheduler.run(until=until, max_events=MAX_EVENTS)

    def run_until_done(
        self,
        *processes: Process,
        max_events: int = MAX_EVENTS,
    ) -> float:
        """Run until every given process finishes.

        Raises RuntimeError if the simulation goes quiescent (deadlock)
        or exceeds ``max_events`` first — a deadlocked protocol test
        should fail loudly, not hang.
        """
        fired = 0
        # One ``done`` read per event, not one per process: a finished
        # process stays finished, so each is waited for in turn.
        waiting = list(processes)
        while waiting:
            if waiting[-1].done:
                waiting.pop()
                continue
            if fired >= max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events; "
                    f"stuck: {[p for p in processes if not p.done]}"
                )
            if not self.scheduler.step():
                stuck = [p.name for p in processes if not p.done]
                failed = [
                    f"{p.name}: {p.error!r}"
                    for host in self.hosts
                    for p in host.kernel.processes.values()
                    if p.error is not None
                ]
                detail = f"; failed elsewhere: {failed}" if failed else ""
                raise RuntimeError(
                    f"simulation went idle with processes blocked: "
                    f"{stuck}{detail}"
                )
            fired += 1
        self._raise_watched_failures(processes)
        return self.scheduler.now

    @staticmethod
    def _raise_watched_failures(processes: tuple[Process, ...]) -> None:
        for process in processes:
            if process.error is not None:
                raise RuntimeError(
                    f"process {process.name} failed: {process.error!r}"
                ) from process.error
