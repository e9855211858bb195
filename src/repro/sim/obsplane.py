"""The cross-shard observability plane: live views of a sharded run.

Since the system of record became a multi-process topology
(:mod:`repro.sim.orchestrator`), its workers have been invisible until
they exit: every ledger/telemetry byte arrives post-merge.  This module
is the paper's "substantial analysis in real time" stance applied to
the *cluster*, the way :mod:`repro.sim.telemetry` applied it to one
world:

* :class:`ProgressSource` builds **bounded, monotonic progress deltas**
  from a live shard — window index, earliest pending sim-time,
  cumulative events, egress backlog, checkpoint age, newly fired
  watchdog alerts, and a mergeable :class:`~repro.sim.telemetry.LogHistogram`
  of span latencies.  A shard builds one per window, as the last step
  of the window body, and it rides that window's reply — the same
  tuple in-process and over a worker's pipe — so the supervisor sees a
  delta exactly when it sees the window it describes.
* :class:`ObservabilityPlane` folds deltas into a live cluster view —
  per-shard :class:`ShardView` records plus skew/backlog aggregates —
  and exposes a callback API (``on_update``, ``on_alert``) that the
  ``python -m repro run --top`` dashboard renders from.  Alert records
  are deduplicated by ``(rule, host, fired_at)``, so checkpoint-replay
  after a crash re-announces nothing.
* :class:`SyncProfile` / :class:`ShardSyncStats` instrument the
  conservative sync protocol itself, supervisor-side: grant-wait
  stalls, window-advance wall latency, null-message (pure time grant)
  counts, cross-shard egress depth, and checkpoint fork/replay time —
  the numbers that attribute the scaling bench's 1-core inversion.

Everything here *reads* quiescent state at window boundaries and
records wall-clock on the supervisor; nothing schedules events, draws
random numbers, or reorders merges.  That is why a run's digest is
bitwise identical with the plane armed or off — the PR 5 free-when-off
contract, enforced by the observer-effect guard in
``tests/difftest/test_observer_effect.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .ledger import STAGE_SYSCALL_RETURN, STAGE_WIRE_ARRIVAL
from .telemetry import LogHistogram

__all__ = [
    "span_latency_histogram",
    "ProgressSource",
    "ShardView",
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


def span_latency_histogram(
    ledger,
    start: str = STAGE_WIRE_ARRIVAL,
    end: str = STAGE_SYSCALL_RETURN,
    *,
    floor: float = 1e-7,
    buckets: int = 64,
) -> LogHistogram:
    """Histogram the per-packet latency between two pipeline stages.

    The mergeable counterpart of
    :meth:`~repro.sim.ledger.Ledger.stage_percentiles`: per-segment
    histograms built by this function and then merged are identical to
    one histogram built over the merged ledger, because octave buckets
    make the fold order-free.
    """
    hist = LogHistogram(floor=floor, buckets=buckets)
    for span in ledger.spans.values():
        latency = span.latency(start, end)
        if latency is not None:
            hist.add(latency)
    return hist


# ---------------------------------------------------------------------------
# the shard side: building deltas
# ---------------------------------------------------------------------------


class ProgressSource:
    """Builds one shard's progress deltas from its live segments.

    Owned by the :class:`~repro.sim.shard.LocalShard` it reads (which
    lives in a worker process for sharded runs, in the orchestrator's
    for ``shards=1``); tracks flush cursors so every delta is an
    incremental read:

    * alerts are flushed once, by per-segment count cursor;
    * span latencies fold into a cumulative :class:`LogHistogram` as
      spans close, keyed ``(segment, packet_id)`` so nothing is counted
      twice;
    * everything else (window, events, clocks) is a cumulative snapshot
      — deltas are *monotonic*, so a delta that arrives late or twice
      (checkpoint replay) simply overwrites the view with the truth.

    The source only reads scheduler clocks, telemetry alert lists and
    closed ledger spans — state that is quiescent at a window boundary —
    so building a delta cannot perturb the simulation.
    """

    def __init__(self, shard, shard_id: int = 0) -> None:
        self.shard = shard
        self.shard_id = shard_id
        self.span_hist = LogHistogram()
        self.checkpoint_window = 0
        self.checkpoint_forks = 0
        self.checkpoint_fork_seconds = 0.0
        self._alert_cursor: dict[str, int] = {}
        self._folded: set[tuple[str, int]] = set()

    def note_checkpoint(self, window: int, fork_seconds: float) -> None:
        """Record a fork-based checkpoint the shard just took."""
        self.checkpoint_window = window
        self.checkpoint_forks += 1
        self.checkpoint_fork_seconds += fork_seconds

    def delta(self, *, window: int, egress_backlog: int) -> dict:
        """One bounded, monotonic progress delta (a plain dict, so it
        crosses a worker's pipe under any start method)."""
        events = 0
        next_times: list[float] = []
        segments: dict[str, dict] = {}
        alerts: list[dict] = []
        for name, runtime in self.shard.runtimes.items():
            world = runtime.world
            fired = world.scheduler.events_fired
            events += fired
            pending = runtime.next_time()
            if pending is not None:
                next_times.append(pending)
            segments[name] = {"now": world.scheduler.now, "events": fired}
            telemetry = world.telemetry
            if telemetry is not None:
                seen = self._alert_cursor.get(name, 0)
                for alert in telemetry.alerts[seen:]:
                    alerts.append(alert.to_dict())
                self._alert_cursor[name] = len(telemetry.alerts)
            ledger = world.ledger
            if ledger is not None:
                for packet_id, span in ledger.spans.items():
                    if span.closed_at is None:
                        continue
                    key = (name, packet_id)
                    if key in self._folded:
                        continue
                    self._folded.add(key)
                    latency = span.latency(
                        STAGE_WIRE_ARRIVAL, STAGE_SYSCALL_RETURN
                    )
                    if latency is not None:
                        self.span_hist.add(latency)
        return {
            "shard": self.shard_id,
            "window": window,
            "next_time": min(next_times) if next_times else None,
            "events_fired": events,
            "egress_backlog": egress_backlog,
            "checkpoint_window": self.checkpoint_window,
            "checkpoint_forks": self.checkpoint_forks,
            "checkpoint_fork_seconds": self.checkpoint_fork_seconds,
            "alerts": alerts,
            "segments": segments,
            "span_hist": (
                self.span_hist.to_dict() if self.span_hist.count else None
            ),
        }


# ---------------------------------------------------------------------------
# the supervisor side: the aggregator
# ---------------------------------------------------------------------------


@dataclass
class ShardView:
    """The plane's latest knowledge of one shard."""

    shard_id: int
    window: int = 0
    next_time: float | None = None
    events_fired: int = 0
    egress_backlog: int = 0
    checkpoint_window: int = 0
    checkpoint_forks: int = 0
    checkpoint_fork_seconds: float = 0.0
    segments: dict = field(default_factory=dict)
    span_hist: LogHistogram | None = None
    deltas: int = 0
    restarts: int = 0
    lost: bool = False
    updated_wall: float = 0.0

    @property
    def checkpoint_age(self) -> int:
        """Windows since this shard's last checkpoint — the replay
        bill if it died right now."""
        return self.window - self.checkpoint_window

    @property
    def earliest(self) -> float:
        """Earliest pending sim-time (``inf`` when quiescent, so skew
        math over live shards stays simple)."""
        return self.next_time if self.next_time is not None else float("inf")


class ObservabilityPlane:
    """Folds progress deltas into a live cluster view.

    Pass an instance to :func:`repro.sim.orchestrator.run_topology` via
    ``observability=`` to arm it.  ``on_update(plane)`` fires after
    every ingested delta; ``on_alert(alert_dict)`` fires once per
    distinct watchdog alert, as soon as any shard reports it — the live
    counterpart of reading the merged alert log post-run.

    The plane is loss-tolerant by construction: deltas are cumulative,
    so dropped ones cost staleness, not correctness; a shard that dies
    mid-run is flagged ``lost`` (and ``restarted`` again once the
    supervisor revives it) without wedging ingestion for the others.
    """

    def __init__(
        self,
        *,
        on_update: Callable[["ObservabilityPlane"], None] | None = None,
        on_alert: Callable[[dict], None] | None = None,
    ) -> None:
        self.shards: dict[int, ShardView] = {}
        self.alerts: list[dict] = []
        self.deltas = 0
        self.on_update = on_update
        self.on_alert = on_alert
        self._alert_keys: set[tuple] = set()

    # -- ingestion -------------------------------------------------------

    def view(self, shard_id: int) -> ShardView:
        if shard_id not in self.shards:
            self.shards[shard_id] = ShardView(shard_id)
        return self.shards[shard_id]

    def ingest(self, delta: dict) -> None:
        """Fold one progress delta in and fire callbacks."""
        view = self.view(delta["shard"])
        view.window = delta["window"]
        view.next_time = delta["next_time"]
        view.events_fired = delta["events_fired"]
        view.egress_backlog = delta["egress_backlog"]
        view.checkpoint_window = delta["checkpoint_window"]
        view.checkpoint_forks = delta["checkpoint_forks"]
        view.checkpoint_fork_seconds = delta["checkpoint_fork_seconds"]
        view.segments = dict(delta["segments"])
        if delta.get("span_hist"):
            view.span_hist = LogHistogram.from_dict(delta["span_hist"])
        view.deltas += 1
        view.lost = False
        view.updated_wall = time.monotonic()
        self.deltas += 1
        for alert in delta.get("alerts", ()):
            key = (alert["rule"], alert["host"], alert["fired_at"])
            if key in self._alert_keys:
                continue
            self._alert_keys.add(key)
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
        if self.on_update is not None:
            self.on_update(self)

    def mark_lost(self, shard_id: int) -> None:
        """The supervisor saw this shard die or wedge; the plane keeps
        the last good view until replies resume."""
        self.view(shard_id).lost = True

    def mark_restarted(self, shard_id: int) -> None:
        view = self.view(shard_id)
        view.lost = False
        view.restarts += 1

    # -- aggregates ------------------------------------------------------

    def earliest_time(self) -> float | None:
        """Earliest pending sim-time across shards (None when all
        quiescent or nothing ingested yet)."""
        times = [
            view.earliest
            for view in self.shards.values()
            if view.earliest != float("inf")
        ]
        return min(times) if times else None

    def time_skew(self) -> float:
        """Sim-time spread between the fastest and slowest shard —
        the conservative protocol's idle bubble."""
        times = [
            view.earliest
            for view in self.shards.values()
            if view.earliest != float("inf")
        ]
        return max(times) - min(times) if len(times) > 1 else 0.0

    def window_skew(self) -> int:
        """Window-index spread (nonzero only transiently: the protocol
        is a barrier, so a persistent skew means a stalled shard)."""
        windows = [view.window for view in self.shards.values()]
        return max(windows) - min(windows) if len(windows) > 1 else 0

    def merged_span_hist(self) -> LogHistogram | None:
        """Cluster-wide span-latency histogram, merged across the
        latest per-shard histograms."""
        merged: LogHistogram | None = None
        for view in self.shards.values():
            if view.span_hist is None:
                continue
            if merged is None:
                merged = LogHistogram(
                    floor=view.span_hist.floor,
                    buckets=len(view.span_hist.counts),
                )
            merged.merge(view.span_hist)
        return merged

    def active_alerts(self) -> list[dict]:
        return [a for a in self.alerts if a.get("cleared_at") is None]

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """One plain-text dashboard frame (the ``repro run --top`` view)."""
        lines = []
        earliest = self.earliest_time()
        head = f"cluster: {len(self.shards)} shard(s), {self.deltas} deltas"
        if earliest is not None:
            head += (
                f", sim {earliest * 1000.0:.1f} ms"
                f", skew {self.time_skew() * 1000.0:.2f} ms"
            )
        lines.append(head)
        lines.append(
            f"{'shard':>5} {'win':>5} {'sim ms':>9} {'events':>9} "
            f"{'egress':>7} {'ckpt age':>8} {'state':>9}"
        )
        slowest = max(
            (v.earliest for v in self.shards.values()), default=float("inf")
        )
        for shard_id in sorted(self.shards):
            view = self.shards[shard_id]
            sim_ms = (
                f"{view.earliest * 1000.0:9.1f}"
                if view.earliest != float("inf")
                else "     idle"
            )
            state = "LOST" if view.lost else (
                f"restart:{view.restarts}" if view.restarts else "ok"
            )
            lag = ""
            if (
                view.earliest != float("inf")
                and slowest != float("inf")
                and view.earliest == slowest
                and len(self.shards) > 1
            ):
                lag = " <- slowest"
            lines.append(
                f"{shard_id:>5} {view.window:>5} {sim_ms} "
                f"{view.events_fired:>9} {view.egress_backlog:>7} "
                f"{view.checkpoint_age:>8} {state:>9}{lag}"
            )
        hist = self.merged_span_hist()
        if hist is not None and hist.count:
            pct = hist.percentiles()
            lines.append(
                f"span latency: n={hist.count} "
                + " ".join(
                    f"{name}={value * 1000.0:.3f}ms"
                    for name, value in pct.items()
                    if value is not None
                )
            )
        active = self.active_alerts()
        for alert in self.alerts[-8:]:
            status = (
                "active"
                if alert.get("cleared_at") is None
                else f"cleared {alert['cleared_at'] * 1000.0:.1f} ms"
            )
            lines.append(
                f"ALERT [{alert['rule']}] {alert['host']} "
                f"fired {alert['fired_at'] * 1000.0:.1f} ms, {status}"
            )
        if not self.alerts:
            lines.append("alerts: none")
        elif not active:
            lines.append(f"alerts: {len(self.alerts)} total, none active")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# sync-protocol profiling (supervisor-side)
# ---------------------------------------------------------------------------


@dataclass
class ShardSyncStats:
    """Per-shard synchronization costs, measured by the supervisor.

    Wall-clock fields (``grant_wait_seconds``, fork/replay times) are
    honest machine time and therefore *outside* the run digest — like
    :attr:`~repro.sim.orchestrator.TopologyResult.wall_seconds` always
    was.  The event-shaped fields (null grants, egress counts) are
    sim-deterministic and reproduce bitwise across runs.
    """

    shard_id: int
    segments: list = field(default_factory=list)
    grants: int = 0
    null_grants: int = 0               #: grants that carried zero frames
    grant_wait_seconds: float = 0.0    #: wall time blocked on step replies
    grant_wait_hist: LogHistogram = field(default_factory=LogHistogram)
    egress_frames: int = 0             #: frames this shard handed back
    max_egress_depth: int = 0          #: largest single-window egress
    egress_per_window: list = field(default_factory=list)
    inbound_frames: int = 0            #: frames routed into this shard
    checkpoint_forks: int = 0
    checkpoint_fork_seconds: float = 0.0
    restarts: int = 0
    replay_seconds: float = 0.0        #: wall time spent in recovery replay

    def note_restart(self, wall_seconds: float) -> None:
        self.restarts += 1
        self.replay_seconds += wall_seconds

    def note_grant(self, frames: int) -> None:
        self.grants += 1
        if frames == 0:
            self.null_grants += 1
        self.inbound_frames += frames

    def note_reply(
        self, wait_seconds: float, egress: int, fork_seconds: float | None
    ) -> None:
        self.grant_wait_seconds += wait_seconds
        self.grant_wait_hist.add(wait_seconds)
        if fork_seconds is not None:
            self.checkpoint_forks += 1
            self.checkpoint_fork_seconds += fork_seconds
        self.egress_frames += egress
        if egress > self.max_egress_depth:
            self.max_egress_depth = egress
        if len(self.egress_per_window) < TRACK_LIMIT:
            self.egress_per_window.append(egress)

    def as_dict(self) -> dict:
        return {
            "shard": self.shard_id,
            "segments": list(self.segments),
            "grants": self.grants,
            "null_grants": self.null_grants,
            "grant_wait_seconds": self.grant_wait_seconds,
            "grant_wait": self.grant_wait_hist.percentiles(),
            "egress_frames": self.egress_frames,
            "max_egress_depth": self.max_egress_depth,
            "inbound_frames": self.inbound_frames,
            "checkpoint_forks": self.checkpoint_forks,
            "checkpoint_fork_seconds": self.checkpoint_fork_seconds,
            "restarts": self.restarts,
            "replay_seconds": self.replay_seconds,
        }


@dataclass
class SyncProfile:
    """Whole-run synchronization profile: per-shard stats plus the
    window cadence (horizons are sim-deterministic; wall latencies are
    not, and the stitched trace uses only the deterministic subset)."""

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
            f"{'wait ms':>9} {'wait p95':>9} {'egress':>7} {'depth':>6} "
            f"{'forks':>6} {'fork ms':>8} {'restarts':>8}"
        )
        for stats in self.shards:
            p95 = stats.grant_wait_hist.quantile(0.95)
            lines.append(
                f"{stats.shard_id:>5} "
                f"{','.join(stats.segments):<18} "
                f"{stats.grants:>7} {stats.null_grants:>6} "
                f"{stats.grant_wait_seconds * 1000.0:>9.2f} "
                f"{(p95 or 0.0) * 1000.0:>9.3f} "
                f"{stats.egress_frames:>7} {stats.max_egress_depth:>6} "
                f"{stats.checkpoint_forks:>6} "
                f"{stats.checkpoint_fork_seconds * 1000.0:>8.2f} "
                f"{stats.restarts:>8}"
            )
        return "\n".join(lines)
