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

* :class:`RxPolicy` — when to leave per-packet interrupt charging for
  budgeted polling (a ring-occupancy watermark), how much work one poll
  quantum may do (``poll_quota``), and what fraction of the CPU is
  *guaranteed* to non-receive work (``user_share``): after each poll
  batch the next poll is pushed out far enough that receive processing
  can never exceed ``1 - user_share`` of the timeline.

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


@dataclass(frozen=True)
class RxPolicy:
    """Receive-path overload policy for one host.

    With a policy installed (``SimKernel.rx_policy``) the NIC's service
    events are *gated on the CPU*: the receive interrupt runs when the
    CPU cursor frees, not instantaneously, so the input ring holds real
    backlog and can genuinely fill — the precondition for every other
    mechanism here.
    """

    poll_enter: int = 8
    """Input-ring occupancy at which the kernel abandons per-frame
    interrupts and switches the interface to budgeted polling."""

    poll_quota: int = 16
    """Maximum frames one poll quantum may take off the ring.  One
    interrupt-service charge covers the whole quantum (mitigation)."""

    poll_period: float = 2e-3
    """Minimum spacing between poll quanta, seconds.  The user-share
    gap below usually dominates; the period is the floor."""

    user_share: float = 0.25
    """Guaranteed CPU fraction for non-receive work.  After a poll
    quantum that charged ``work`` seconds, the next poll is scheduled no
    earlier than ``work * user_share / (1 - user_share)`` seconds after
    the work completes, so receive processing is capped at
    ``1 - user_share`` of the CPU timeline no matter the offered load."""

    shed_watermark: int | None = None
    """Ring occupancy at which *polling-mode* arrivals are shed on
    admission (``dropped_shed``) before any buffer is taken — early
    drop strictly cheaper than a ring slot.  ``None`` disables the
    watermark; the hard ring limit still applies (``dropped_ring``).
    Polling-mode arrivals whose cached classification says every target
    port is already full are shed too, watermark or not."""

    def __post_init__(self) -> None:
        if self.poll_enter < 1:
            raise ValueError("poll_enter must be at least 1")
        if self.poll_quota < 1:
            raise ValueError("poll_quota must be at least 1")
        if self.poll_period < 0.0:
            raise ValueError("poll_period must be non-negative")
        if not (0.0 <= self.user_share < 1.0):
            raise ValueError("user_share must be in [0, 1)")
        if self.shed_watermark is not None and self.shed_watermark < 1:
            raise ValueError("shed_watermark must be at least 1")

    def user_gap(self, work: float) -> float:
        """Idle gap owed to user processes after ``work`` seconds of
        receive processing — the reservation that makes ``user_share``
        a guarantee rather than a hope."""
        if self.user_share <= 0.0:
            return 0.0
        return work * self.user_share / (1.0 - self.user_share)


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

    def reserve(self, owner: Hashable, count: int = 1) -> bool:
        """Take ``count`` buffers for ``owner``; all-or-nothing.

        Returns False — and takes nothing — when the pool or the
        owner's share cannot cover the request.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if self._in_use + count > self.capacity:
            self.stats.denied_pool += 1
            return False
        share = self.share_of(owner)
        if share is not None and self.held(owner) + count > share:
            self.stats.denied_share += 1
            return False
        self._held[owner] = self.held(owner) + count
        self._in_use += count
        self.stats.reserved += count
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
