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
  read off the window reply itself) and what synchronizing it cost
  (grant-wait stalls, window-advance wall latency, null-message counts,
  cross-shard egress depth, replay time — the numbers that attribute
  the scaling bench's 1-core inversion).
* :class:`ProgressSource` builds a live shard's **progress delta** —
  the news a reply does not already carry: per-segment clocks, newly
  fired watchdog alerts, and a mergeable
  :class:`~repro.sim.telemetry.LogHistogram` of span latencies.  A
  shard builds one per window, as the last step of the window body,
  and it rides that window's reply — the same tuple in-process and
  over a worker's pipe — so the supervisor sees a delta exactly when
  it sees the window it describes.
* :class:`ObservabilityPlane` is the live reader: it watches the run's
  :class:`SyncProfile` (``plane.view(i) is result.sync.shards[i]``),
  adds skew/backlog aggregates and a callback API (``on_update``,
  ``on_alert``) that the ``python -m repro run --top`` dashboard
  renders from.  Alerts are deduplicated by ``(rule, host,
  fired_at)``, so replay after a crash re-announces nothing.

Everything here *reads* quiescent state at window boundaries and
records wall-clock on the supervisor; nothing schedules events, draws
random numbers, or reorders merges.  That is why a run's digest is
bitwise identical with the plane armed or off — the PR 5 free-when-off
contract, enforced by the observer-effect guard in
``tests/difftest/test_observer_effect.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .ledger import STAGE_SYSCALL_RETURN, STAGE_WIRE_ARRIVAL
from .telemetry import Alert, LogHistogram

__all__ = [
    "span_latency_histogram",
    "ProgressSource",
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


def span_latency_histogram(ledger) -> LogHistogram:
    """Histogram every packet's wire-arrival → syscall-return latency.

    The mergeable counterpart of
    :meth:`~repro.sim.ledger.Ledger.stage_percentiles`: per-segment
    histograms built by this function and then merged are identical to
    one histogram built over the merged ledger, because octave buckets
    make the fold order-free.
    """
    hist = LogHistogram()
    for span in ledger.spans.values():
        latency = span.latency(STAGE_WIRE_ARRIVAL, STAGE_SYSCALL_RETURN)
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
    for ``shards=1``).  A delta carries only what the reply it rides in
    does not already say — the window index, events fired, egress and
    earliest pending time are the reply's own fields:

    * ``clocks``: each segment's ``now`` and cumulative ``events``;
    * ``alerts``: copies, as of this window, of the watchdog alerts
      fired since the last delta (flushed once, by per-segment count
      cursor) — copies at every shard count, so the plane never holds
      the sampler's own record while the sampler is still writing it;
    * ``span_hist``: the cumulative :class:`LogHistogram` of span
      latencies, folded as spans close and keyed ``(segment,
      packet_id)`` so nothing is counted twice.

    Clocks and histogram are cumulative, so a delta that arrives late or
    twice (recovery replay) simply overwrites the record with the
    truth.  The source only reads scheduler clocks, telemetry alert
    lists and closed ledger spans — state that is quiescent at a window
    boundary — so building a delta cannot perturb the simulation.
    """

    def __init__(self, shard) -> None:
        self.shard = shard
        self.span_hist = LogHistogram()
        self._alert_cursor: dict[str, int] = {}
        self._folded: set[tuple[str, int]] = set()

    def delta(self) -> dict:
        """One bounded progress delta (plain picklable data, so it
        crosses a worker's pipe under any start method)."""
        clocks: dict[str, dict] = {}
        alerts: list[Alert] = []
        for name, runtime in self.shard.runtimes.items():
            world = runtime.world
            clocks[name] = {
                "now": world.scheduler.now,
                "events": world.scheduler.events_fired,
            }
            telemetry = world.telemetry
            if telemetry is not None:
                seen = self._alert_cursor.get(name, 0)
                alerts.extend(replace(alert) for alert in telemetry.alerts[seen:])
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
        return {"clocks": clocks, "alerts": alerts, "span_hist": self.span_hist}


# ---------------------------------------------------------------------------
# the supervisor side: the live reader
# ---------------------------------------------------------------------------


class ObservabilityPlane:
    """The live reader of a sharded run.

    Pass an instance to :func:`repro.sim.orchestrator.run_topology` via
    ``observability=`` to arm it: every window reply then carries a
    progress delta, and the orchestrator points :attr:`sync` at the
    run's :class:`SyncProfile` — the per-shard records the plane reads
    are the run's own, not copies.  ``on_update(plane)`` fires after
    every ingested delta; ``on_alert(alert)`` fires once per distinct
    watchdog :class:`~repro.sim.telemetry.Alert`, as soon as any shard
    reports it — the live counterpart of reading the merged alert log
    post-run.

    The plane is loss-tolerant by construction: deltas are cumulative,
    so dropped ones cost staleness, not correctness; a shard that dies
    mid-run shows ``lost`` on its record (until the supervisor revives
    it) without wedging ingestion for the others.
    """

    def __init__(
        self,
        *,
        on_update: Callable[["ObservabilityPlane"], None] | None = None,
        on_alert: Callable[[Alert], None] | None = None,
    ) -> None:
        self.sync = SyncProfile()
        self.alerts: list[Alert] = []
        self.deltas = 0
        self.on_update = on_update
        self.on_alert = on_alert
        self._alert_keys: set[tuple] = set()

    # -- ingestion -------------------------------------------------------

    def view(self, shard_id: int) -> "ShardSyncStats":
        return self.sync.shards[shard_id]

    def ingest(self, delta: dict) -> None:
        """Announce one progress delta's new alerts and fire callbacks
        (its clocks and histogram are already on the shard's record —
        :meth:`ShardSyncStats.note_reply` read them off the reply)."""
        self.deltas += 1
        for alert in delta["alerts"]:
            key = (alert.rule, alert.host, alert.fired_at)
            if key in self._alert_keys:
                continue
            self._alert_keys.add(key)
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

    def window_skew(self) -> int:
        """Window-index spread (nonzero only transiently: the protocol
        is a barrier, so a persistent skew means a stalled shard)."""
        windows = [stats.window for stats in self.sync.shards]
        return max(windows) - min(windows) if len(windows) > 1 else 0

    def merged_span_hist(self) -> LogHistogram:
        """Cluster-wide span-latency histogram, merged across the
        latest per-shard histograms."""
        merged = LogHistogram()
        for stats in self.sync.shards:
            if stats.span_hist is not None:
                merged.merge(stats.span_hist)
        return merged

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
            f"{'egress':>7} {'state':>9}",
        ]
        for stats in shards:
            sim_ms = (
                f"{stats.next_time * 1000.0:9.1f}"
                if stats.next_time is not None
                else "     idle"
            )
            state = "LOST" if stats.lost else (
                f"restart:{stats.restarts}" if stats.restarts else "ok"
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
                f"{stats.events_fired:>9} {stats.egress_backlog:>7} "
                f"{state:>9}{lag}"
            )
        hist = self.merged_span_hist()
        if hist.count:
            lines.append(
                f"span latency: n={hist.count} "
                + " ".join(
                    f"{name}={value * 1000.0:.3f}ms"
                    for name, value in hist.percentiles().items()
                )
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
    Wall-clock fields (``grant_wait_seconds``, ``replay_seconds``) are
    honest machine time and therefore *outside* the run digest — like
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
    lost: bool = False                 #: died or wedged, not yet revived
    #: per-segment ``{"now", "events"}`` and the cumulative span-latency
    #: histogram, from the latest progress delta (only an armed
    #: observability plane asks shards for deltas)
    clocks: dict = field(default_factory=dict)
    span_hist: LogHistogram | None = None
    grants: int = 0
    null_grants: int = 0               #: grants that carried zero frames
    grant_wait_seconds: float = 0.0    #: wall time blocked on step replies
    grant_wait_hist: LogHistogram = field(default_factory=LogHistogram)
    egress_frames: int = 0             #: frames this shard handed back
    max_egress_depth: int = 0          #: largest single-window egress
    egress_per_window: list = field(default_factory=list)
    inbound_frames: int = 0            #: frames routed into this shard
    restarts: int = 0
    replay_seconds: float = 0.0        #: wall time spent in recovery replay

    def note_restart(self, wall_seconds: float) -> None:
        self.lost = False
        self.restarts += 1
        self.replay_seconds += wall_seconds

    def note_grant(self, frames: int) -> None:
        self.grants += 1
        if frames == 0:
            self.null_grants += 1
        self.inbound_frames += frames

    def note_reply(self, wait_seconds: float, reply: tuple) -> None:
        """Fold in one window's reply — ``(window, fired, egress,
        next_time, delta)`` — received after blocking ``wait_seconds``
        on it."""
        self.window, fired, egress, self.next_time, delta = reply
        self.events_fired += fired
        self.egress_backlog = depth = len(egress)
        self.grant_wait_seconds += wait_seconds
        self.grant_wait_hist.add(wait_seconds)
        self.egress_frames += depth
        if depth > self.max_egress_depth:
            self.max_egress_depth = depth
        if len(self.egress_per_window) < TRACK_LIMIT:
            self.egress_per_window.append(depth)
        if delta is not None:
            self.clocks = delta["clocks"]
            self.span_hist = delta["span_hist"]

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
            f"{'restarts':>8}"
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
                f"{stats.restarts:>8}"
            )
        return "\n".join(lines)
