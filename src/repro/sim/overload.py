"""Overload control: receive-livelock avoidance and buffer admission.

The paper puts demultiplexing in the kernel so the receive path stays
cheap — but cheap per packet is not enough under a packet storm.  An
interrupt-driven kernel will happily spend its entire CPU timeline on
receive interrupts for packets that are later dropped anyway, starving
the user processes the filters deliver to: the classic *receive
livelock* collapse (Mogul & Ramakrishnan, "Eliminating Receive Livelock
in an Interrupt-Driven Kernel").  Modern userspace stacks treat the
cure — bounded rings, polling quotas, early drop — as first-class.

This module holds the two policy objects the cure is built from:

* :class:`RxPolicy` — budgeted polling for a host: it leaves
  per-packet interrupt charging when the ring holds :data:`POLL_ENTER`
  frames, takes at most :data:`POLL_QUOTA` per poll quantum, and
  guarantees :data:`USER_SHARE` of the CPU to non-receive work: after
  each poll batch the next poll is pushed out far enough that receive
  processing can never exceed ``1 - USER_SHARE`` of the timeline.

* :class:`BufferPool` — a shared, bounded kernel buffer pool (mbuf
  style) with per-port share limits.  Every frame sitting in an input
  ring or a port queue holds exactly one reservation, tagged with its
  owner, so leaks are *auditable*: after a world quiesces —
  crash-killed consumers included — :meth:`BufferPool.audit` must come
  back empty.

Neither object charges CPU by itself; they gate *where* the existing
cost model's charges happen.  Both are off by default — a world without
them behaves exactly as before (infinite interrupt capacity, no
admission control), which is what the livelock benchmark measures
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

__all__ = ["RxPolicy", "BufferPool", "PoolStats"]

POLL_ENTER = 8
"""Input-ring occupancy at which the kernel abandons per-frame
interrupts and switches the interface to budgeted polling."""

POLL_QUOTA = 16
"""Maximum frames one poll quantum may take off the ring.  One
interrupt-service charge covers the whole quantum (mitigation)."""

POLL_PERIOD = 2e-3
"""Minimum spacing between poll quanta, seconds.  The user-share gap
usually dominates; the period is the floor."""

USER_SHARE = 0.25
"""Guaranteed CPU fraction for non-receive work.  After a poll quantum
that charged ``work`` seconds, the next poll is scheduled no earlier
than ``work * USER_SHARE / (1 - USER_SHARE)`` seconds after the work
completes, so receive processing is capped at ``1 - USER_SHARE`` of the
CPU timeline no matter the offered load."""


@dataclass(frozen=True)
class RxPolicy:
    """Receive-path overload policy for one host.

    With a policy installed (``SimKernel.rx_policy``) the NIC's service
    events are *gated on the CPU*: the receive interrupt runs when the
    CPU cursor frees, not instantaneously, so the input ring holds real
    backlog and can genuinely fill — the precondition for every other
    mechanism here.
    """

    shed_watermark: int | None = None
    """Ring occupancy at which *polling-mode* arrivals are shed on
    admission (``dropped_shed``) before any buffer is taken — early
    drop strictly cheaper than a ring slot.  ``None`` disables the
    watermark; the hard ring limit still applies (``dropped_ring``).
    Polling-mode arrivals whose cached classification says every target
    port is already full are shed too, watermark or not."""

    def __post_init__(self) -> None:
        if self.shed_watermark is not None and self.shed_watermark < 1:
            raise ValueError("shed_watermark must be at least 1")

    @staticmethod
    def user_gap(work: float) -> float:
        """Idle gap owed to user processes after ``work`` seconds of
        receive processing — the reservation that makes
        :data:`USER_SHARE` a guarantee rather than a hope."""
        return work * USER_SHARE / (1.0 - USER_SHARE)


@dataclass
class PoolStats:
    """Lifetime counters for one :class:`BufferPool`."""

    reserved: int = 0        #: successful reservations
    released: int = 0        #: buffers returned
    denied_pool: int = 0     #: reservations refused: pool exhausted
    denied_share: int = 0    #: reservations refused: owner at its share
    peak_in_use: int = 0     #: high-water mark


class BufferPool:
    """A bounded pool of kernel packet buffers with owner accounting.

    Owners are arbitrary hashable tags — the NIC ring reserves under
    ``("ring", host)``, each packet-filter port under
    ``("port", port_id)`` — and ``port_share`` caps how many buffers a
    single ``("port", ...)`` owner may hold, so one slow consumer
    cannot starve the rest of the host (the per-port queue share of the
    admission-control story).
    """

    def __init__(self, capacity: int, *, port_share: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be at least 1")
        if port_share is not None and port_share < 1:
            raise ValueError("port_share must be at least 1")
        self.capacity = capacity
        self.port_share = port_share
        self.stats = PoolStats()
        self._held: dict[Hashable, int] = {}
        self._in_use = 0

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def held(self, owner: Hashable) -> int:
        """Buffers currently reserved by ``owner``."""
        return self._held.get(owner, 0)

    def share_of(self, owner: Hashable) -> int | None:
        """The reservation cap that applies to ``owner`` (None = only
        the pool capacity bounds it)."""
        if (
            self.port_share is not None
            and isinstance(owner, tuple)
            and owner
            and owner[0] == "port"
        ):
            return self.port_share
        return None

    def at_share(self, owner: Hashable) -> bool:
        """Would one more reservation for ``owner`` be refused?"""
        if self._in_use >= self.capacity:
            return True
        share = self.share_of(owner)
        return share is not None and self.held(owner) >= share

    def telemetry_gauges(self) -> dict:
        """Gauge callables for the telemetry sampler — occupancy and the
        refusal counters the pool-exhaustion watchdog watches.  The host
        publishes these when the pool is installed
        (:meth:`repro.sim.host.Host.enable_overload`)."""
        return {
            "in_use": lambda: self._in_use,
            "available": lambda: self.capacity - self._in_use,
            "capacity": lambda: self.capacity,
            "denied": lambda: self.stats.denied_pool + self.stats.denied_share,
        }

    def audit(self) -> dict[Hashable, int]:
        """Non-zero holdings by owner.

        The crash-safety invariant: once a world quiesces, every ring
        has drained and every port has been read or torn down, so the
        audit is empty — a non-empty audit is a leaked buffer, exactly
        the bug :meth:`SimKernel.kill` teardown exists to prevent.
        """
        return {owner: n for owner, n in self._held.items() if n > 0}

    # -- reserve / release ------------------------------------------------

    def reserve(self, owner: Hashable) -> bool:
        """Take one buffer for ``owner``.

        Returns False — and takes nothing — when the pool or the
        owner's share is full.
        """
        if self._in_use >= self.capacity:
            self.stats.denied_pool += 1
            return False
        held = self.held(owner)
        share = self.share_of(owner)
        if share is not None and held >= share:
            self.stats.denied_share += 1
            return False
        self._held[owner] = held + 1
        self._in_use += 1
        self.stats.reserved += 1
        if self._in_use > self.stats.peak_in_use:
            self.stats.peak_in_use = self._in_use
        return True

    def release(self, owner: Hashable, count: int = 1) -> None:
        """Return ``count`` buffers held by ``owner``.

        Over-releasing raises: it means reservation bookkeeping went
        wrong somewhere, and a silent clamp would hide the leak the
        audit exists to catch.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        held = self.held(owner)
        if count > held:
            raise ValueError(
                f"owner {owner!r} releasing {count} buffers but holds {held}"
            )
        remaining = held - count
        if remaining:
            self._held[owner] = remaining
        else:
            self._held.pop(owner, None)
        self._in_use -= count
        self.stats.released += count

    def release_all(self, owner: Hashable) -> int:
        """Return every buffer ``owner`` holds; returns how many."""
        held = self.held(owner)
        if held:
            self.release(owner, held)
        return held
