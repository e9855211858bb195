"""A world: the clock, one Ethernet segment, and the hosts on it.

Every test, example and benchmark builds one of these.  A world is
completely deterministic: same construction, same outcome, always.
"""

from __future__ import annotations

import random

from ..net.ethernet import ETHERNET_10MB, LinkSpec
from .clock import EventScheduler
from .costs import MICROVAX_II, CostModel
from .host import Host
from .ledger import Ledger
from .process import Process
from .seeds import derive_seed
from .telemetry import Telemetry

__all__ = ["World"]


class World:
    """The whole simulation: scheduler + segment + hosts."""

    def __init__(
        self,
        link: LinkSpec = ETHERNET_10MB,
        costs: CostModel = MICROVAX_II,
        *,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        seed: int = 0,
        chaos=None,
        ledger: bool = False,
        telemetry: bool = False,
    ) -> None:
        from ..net.medium import EthernetSegment

        self.link = link
        self.costs = costs
        #: root of the world's seed namespace; see :meth:`seed_for`.
        self.seed = seed
        self.scheduler = EventScheduler()
        self.segment = EthernetSegment(
            self.scheduler,
            link,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            seed=seed,
        )
        if chaos is not None:
            # A repro.net.ChaosConfig: burst loss, reordering jitter,
            # corruption, duplication — applied to every direction.
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

    def enable_telemetry(
        self,
        *,
        interval: float | None = None,
        capacity: int | None = None,
        watchdogs: bool = True,
    ) -> Telemetry:
        """Arm the live-telemetry sampler on every host (current and
        future); idempotent, returns the :class:`Telemetry`.

        ``interval`` is the sim-time tick spacing, ``capacity`` the
        per-series ring size, ``watchdogs`` installs the built-in
        detector set (receive livelock, pool exhaustion, poll-mode
        residency, RTO backoff storms) on each host.
        """
        if self.telemetry is None:
            kwargs: dict = {"watchdogs": watchdogs}
            if interval is not None:
                kwargs["interval"] = interval
            if capacity is not None:
                kwargs["capacity"] = capacity
            self.telemetry = Telemetry(self.scheduler, **kwargs)
            for host in self.hosts:
                self.telemetry.attach_host(host.kernel)
            self.telemetry.arm()
        return self.telemetry

    @property
    def now(self) -> float:
        return self.scheduler.now

    # -- derived randomness ------------------------------------------------

    def seed_for(self, *path: "str | int | bytes") -> int:
        """A child seed under this world's root, named by ``path``.

        Derivation (:func:`repro.sim.seeds.derive_seed`) is a pure
        function of ``(seed, *path)`` — independent of host count,
        creation order, process boundaries and ``PYTHONHASHSEED`` — so
        a sharded topology and a single-process run hand every consumer
        the identical stream.
        """
        return derive_seed(self.seed, *path)

    def rng(self, *path: "str | int | bytes") -> random.Random:
        """A ``random.Random`` seeded by :meth:`seed_for`."""
        return random.Random(self.seed_for(*path))

    def host(
        self,
        name: str,
        address: bytes | None = None,
        *,
        promiscuous: bool = False,
        costs: CostModel | None = None,
        input_queue_limit: int = 16,
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

    def run(self, until: float | None = None, max_events: int = 5_000_000) -> float:
        """Fire events until quiescent (or ``until``); returns the time."""
        return self.scheduler.run(until=until, max_events=max_events)

    def run_until_done(
        self,
        *processes: Process,
        max_events: int = 5_000_000,
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
