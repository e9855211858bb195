"""The cross-shard observability plane: live views of a sharded run.

Since the system of record became a multi-process topology
(:mod:`repro.sim.orchestrator`), its workers have been invisible until
they exit: every ledger/telemetry byte arrives post-merge.  This module
is the paper's "substantial analysis in real time" stance applied to
the *cluster*, the way :mod:`repro.sim.telemetry` applied it to one
world:

* :class:`SyncProfile` / :class:`ShardSyncStats` are the supervisor's
  one record of each shard, always kept: where the shard is (window,
  earliest pending sim-time, cumulative events, egress backlog — all
  read off the window reply itself), what synchronizing it cost
  (grant-wait stalls, window-advance wall latency, null-message counts,
  cross-shard egress depth — the numbers that attribute the scaling
  bench's 1-core inversion).
* A window's reply carries, as its last field, copies of the watchdog
  alerts its segments fired during that window
  (:meth:`~repro.sim.shard.LocalShard.run_window`) — the only news a
  reply brings that its other fields do not already say.
* :class:`ObservabilityPlane` is the live reader: it watches the run's
  :class:`SyncProfile` (``plane.view(i) is result.sync.shards[i]``),
  adds skew aggregates and a callback API (``on_update``,
  ``on_alert``) that the ``python -m repro run --top`` dashboard
  renders from.

Everything here *reads* quiescent state at window boundaries and
records wall-clock on the supervisor; nothing schedules events, draws
random numbers, or reorders merges.  That is why a run's digest is
bitwise identical with the plane armed or off — the free-when-off
contract, enforced by the observer-effect guard in
``tests/difftest/test_observer_effect.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .telemetry import Alert, LogHistogram

__all__ = [
    "ObservabilityPlane",
    "ShardSyncStats",
    "SyncProfile",
    "TRACK_LIMIT",
]

TRACK_LIMIT = 4096
"""Per-window samples kept by :class:`SyncProfile` (horizons, wall
times, egress depths).  Aggregates keep accumulating past the cap, so
profiles stay *bounded* even at the orchestrator's million-window
ceiling; only the per-window detail truncates."""


class ObservabilityPlane:
    """The live reader of a sharded run.

    Pass an instance to :func:`repro.sim.orchestrator.run_topology` via
    ``observability=`` to arm it: the orchestrator points :attr:`sync`
    at the run's :class:`SyncProfile` — the per-shard records the plane
    reads are the run's own, not copies — and hands it the alerts of
    every window reply it receives.  ``on_update(plane)`` fires after
    every reply; ``on_alert(alert)`` fires once per watchdog
    :class:`~repro.sim.telemetry.Alert`, as soon as its shard reports
    it (a reply carries only the alerts fired in its window) — the live
    counterpart of reading the merged alert log post-run.

    A reply that never arrives (its worker died) leaves the plane
    readable: it shows each shard's last good record.
    """

    def __init__(
        self,
        *,
        on_update: Callable[["ObservabilityPlane"], None] | None = None,
        on_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.sync = SyncProfile()
        self.alerts: list[Alert] = []
        self.deltas = 0   #: window replies ingested
        self.on_update = on_update
        self.on_alert = on_alert

    # -- ingestion -------------------------------------------------------

    def view(self, shard_id: int) -> "ShardSyncStats":
        return self.sync.shards[shard_id]

    def ingest(self, alerts: list) -> None:
        """Announce one window reply's new alerts and fire callbacks
        (the rest of the reply is already on the shard's record —
        :meth:`ShardSyncStats.note_reply` read it)."""
        self.deltas += 1
        for alert in alerts:
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
        if self.on_update is not None:
            self.on_update(self)

    # -- aggregates ------------------------------------------------------

    def _pending_times(self) -> list[float]:
        return [
            stats.next_time
            for stats in self.sync.shards
            if stats.next_time is not None
        ]

    def earliest_time(self) -> float | None:
        """Earliest pending sim-time across shards (None when all
        quiescent or nothing ingested yet)."""
        return min(self._pending_times(), default=None)

    def time_skew(self) -> float:
        """Sim-time spread between the fastest and slowest shard —
        the conservative protocol's idle bubble."""
        times = self._pending_times()
        return max(times) - min(times) if len(times) > 1 else 0.0

    def active_alerts(self) -> list[Alert]:
        return [alert for alert in self.alerts if alert.active]

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """One plain-text dashboard frame (the ``repro run --top`` view)."""
        shards = self.sync.shards
        earliest = self.earliest_time()
        head = f"cluster: {len(shards)} shard(s), {self.deltas} deltas"
        if earliest is not None:
            head += (
                f", sim {earliest * 1000.0:.1f} ms"
                f", skew {self.time_skew() * 1000.0:.2f} ms"
            )
        lines = [
            head,
            f"{'shard':>5} {'win':>5} {'sim ms':>9} {'events':>9} "
            f"{'egress':>7}",
        ]
        for stats in shards:
            sim_ms = (
                f"{stats.next_time * 1000.0:9.1f}"
                if stats.next_time is not None
                else "     idle"
            )
            # The shard everyone waits on holds the earliest pending
            # event: it sets the next horizon.
            lag = (
                " <- slowest"
                if len(shards) > 1
                and earliest is not None
                and stats.next_time == earliest
                else ""
            )
            lines.append(
                f"{stats.shard_id:>5} {stats.window:>5} {sim_ms} "
                f"{stats.events_fired:>9} {stats.egress_backlog:>7}{lag}"
            )
        lines += [f"ALERT {alert.render()}" for alert in self.alerts[-8:]]
        if not self.alerts:
            lines.append("alerts: none")
        elif not self.active_alerts():
            lines.append(f"alerts: {len(self.alerts)} total, none active")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# sync-protocol profiling (supervisor-side)
# ---------------------------------------------------------------------------


@dataclass
class ShardSyncStats:
    """The supervisor's one record of a shard: where it is, and what
    synchronizing it cost.

    Every field is filled supervisor-side, from the grants sent and the
    window replies received — whether or not anything is watching.
    The wall-clock field (``grant_wait_seconds``) is honest machine
    time and therefore *outside* the run digest — like
    :attr:`~repro.sim.orchestrator.TopologyResult.wall_seconds` always
    was.  The event-shaped fields (window, events, null grants, egress
    counts) are sim-deterministic and reproduce bitwise across runs.
    """

    shard_id: int
    segments: list = field(default_factory=list)   #: segment names owned
    window: int = 0                    #: last window acknowledged
    next_time: float | None = None     #: earliest pending sim-time (None: idle)
    events_fired: int = 0
    egress_backlog: int = 0            #: frames the last window handed back
    grants: int = 0
    null_grants: int = 0               #: grants that carried zero frames
    grant_wait_seconds: float = 0.0    #: wall time blocked on step replies
    grant_wait_hist: LogHistogram = field(default_factory=LogHistogram)
    egress_frames: int = 0             #: frames this shard handed back
    max_egress_depth: int = 0          #: largest single-window egress
    egress_per_window: list = field(default_factory=list)
    inbound_frames: int = 0            #: frames routed into this shard

    def note_grant(self, frames: int) -> None:
        self.grants += 1
        if frames == 0:
            self.null_grants += 1
        self.inbound_frames += frames

    def note_reply(self, wait_seconds: float, reply: tuple) -> None:
        """Fold in one window's reply — ``(window, fired, egress,
        next_time, alerts)`` — received after blocking ``wait_seconds``
        on it."""
        self.window, fired, egress, self.next_time, _ = reply
        self.events_fired += fired
        self.egress_backlog = depth = len(egress)
        self.grant_wait_seconds += wait_seconds
        self.grant_wait_hist.add(wait_seconds)
        self.egress_frames += depth
        if depth > self.max_egress_depth:
            self.max_egress_depth = depth
        if len(self.egress_per_window) < TRACK_LIMIT:
            self.egress_per_window.append(depth)

    def as_dict(self) -> dict:
        return {
            "shard": self.shard_id,
            "grants": self.grants,
            "null_grants": self.null_grants,
            "grant_wait_seconds": self.grant_wait_seconds,
            "grant_wait": self.grant_wait_hist.percentiles(),
            "egress_frames": self.egress_frames,
            "max_egress_depth": self.max_egress_depth,
            "inbound_frames": self.inbound_frames,
        }


@dataclass
class SyncProfile:
    """Whole-run synchronization profile: per-shard stats and the window
    cadence (horizons are sim-deterministic; wall latencies are not,
    and the stitched trace uses only the deterministic subset)."""

    shards: list = field(default_factory=list)
    windows: int = 0
    horizons: list = field(default_factory=list)      #: sim-time grant horizons
    window_walls: list = field(default_factory=list)  #: wall secs per window
    window_wall_seconds: float = 0.0
    advance_hist: LogHistogram = field(default_factory=LogHistogram)

    def note_window(self, horizon: float | None, wall_seconds: float) -> None:
        self.windows += 1
        self.window_wall_seconds += wall_seconds
        self.advance_hist.add(wall_seconds)
        if len(self.horizons) < TRACK_LIMIT:
            self.horizons.append(horizon)
            self.window_walls.append(wall_seconds)

    @property
    def wall_per_window(self) -> float:
        """Mean wall seconds per synchronization window."""
        return self.window_wall_seconds / self.windows if self.windows else 0.0

    def as_dict(self) -> dict:
        return {
            "windows": self.windows,
            "wall_per_window": self.wall_per_window,
            "window_advance": self.advance_hist.percentiles(),
            "shards": [stats.as_dict() for stats in self.shards],
        }

    def render(self) -> str:
        """The ``repro run --shards N --profile`` table."""
        lines = [
            f"sync protocol: {self.windows} windows, "
            f"{self.wall_per_window * 1000.0:.3f} ms wall/window"
        ]
        advance = self.advance_hist.percentiles()
        if advance.get("p50") is not None:
            lines.append(
                "window advance: "
                + " ".join(
                    f"{name}={value * 1000.0:.3f}ms"
                    for name, value in advance.items()
                    if value is not None
                )
            )
        lines.append(
            f"{'shard':>5} {'segments':<18} {'grants':>7} {'null':>6} "
            f"{'wait ms':>9} {'wait p95':>9} {'egress':>7} {'depth':>6}"
        )
        for stats in self.shards:
            p95 = stats.grant_wait_hist.quantile(0.95)
            lines.append(
                f"{stats.shard_id:>5} "
                f"{','.join(stats.segments):<18} "
                f"{stats.grants:>7} {stats.null_grants:>6} "
                f"{stats.grant_wait_seconds * 1000.0:>9.2f} "
                f"{(p95 or 0.0) * 1000.0:>9.3f} "
                f"{stats.egress_frames:>7} {stats.max_egress_depth:>6}"
            )
        return "\n".join(lines)
