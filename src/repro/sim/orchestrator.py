"""The conservative-parallel orchestrator: windows, grants, merging.

Drives a :class:`~repro.sim.topology.TopologySpec` to quiescence as a
sequence of synchronized time windows:

1. **Grant.**  Every shard is granted the same horizon ``H`` (sent with
   any bridged frames destined for its segments) and runs each of its
   worlds up to, but excluding, ``H``.
2. **Exchange.**  Shards return the frames their bridge endpoints
   captured.  A frame captured at ``t`` delivers at ``t + delay``, and
   every window is at most the smallest bridge delay wide, so captured
   frames always deliver at-or-after the *next* horizon — no shard ever
   receives an event in its past.  That is the classic lookahead
   argument of conservative (Chandy–Misra–Bryant) simulation; the
   grant messages double as null messages.
3. **Advance.**  The next horizon is the smallest window-multiple
   strictly after the earliest pending event anywhere (idle stretches
   are skipped in one hop, busy ones advance window by window).

Because horizons, frame routing and injection order are computed
identically whether shards are in-process (``shards=1``) or separate
processes, the merged result is bitwise identical across partitionings
— the property the difftest oracle (:mod:`repro.difftest.sharding`)
checks, and what makes the parallel speedup trustworthy.

There is one grant/receive loop and one reply shape — ``(window,
fired, egress, next_time, alerts)`` from either shard class — so the
loop never asks which class it holds: each reply is folded into the
shard's one supervisor-side record
(:class:`~repro.sim.obsplane.ShardSyncStats`) where it is received, and
an armed observability plane — which reads those same records — is
handed the reply's alerts there too.

A shard that dies (pipe EOF) or misses its reply deadline fails the
run with a typed :class:`~repro.sim.shard.ShardDiedError` or
:class:`~repro.sim.shard.ShardTimeoutError`; every worker is reaped on
the way out.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .ledger import Ledger
from .obsplane import ShardSyncStats, SyncProfile
from .shard import LocalShard, ProcessShard, check_deadline, partition
from .stats import KernelStats, merge_stats
from .telemetry import TelemetrySnapshot
from .topology import SegmentReport, TopologySpec

__all__ = ["TopologyResult", "run_topology"]

#: Synchronization rounds after which a run is declared livelocked.
MAX_WINDOWS = 1_000_000

@dataclass
class TopologyResult:
    """The whole-topology view, reassembled from per-segment reports."""

    spec: TopologySpec
    shards: int
    stats: dict[str, KernelStats]          #: merged per-host counters
    total: KernelStats                     #: field-wise sum over hosts
    ledger: Ledger | None                  #: merged (spec-order) ledger
    telemetry: TelemetrySnapshot | None
    reports: dict[str, dict]               #: per-segment builder reports
    wire: dict[str, dict]                  #: per-segment cable counters
    events_fired: int
    now: float                             #: latest per-world clock
    windows: int                           #: synchronization rounds run
    wall_seconds: float
    #: sync-protocol profile (grant waits, null grants, egress depth);
    #: always collected — per-window wall clocks on the supervisor, so
    #: free for the worlds and outside the digest
    sync: SyncProfile
    segment_reports: list = field(default_factory=list, repr=False)
    #: per-shard breakdown: segments owned, events fired, final clock
    shard_details: list = field(default_factory=list)


def _merge_reports(
    spec: TopologySpec,
    by_name: dict[str, SegmentReport],
    *,
    shards: int,
    windows: int,
    wall_seconds: float,
    sync: SyncProfile,
    shard_details: list,
) -> TopologyResult:
    """Reassemble the whole-world view, always in spec order.

    Merging in spec order — never shard or arrival order — is what
    keeps float sums and remapped ledger packet ids identical no matter
    how segments were partitioned.
    """
    ordered = [by_name[segment.name] for segment in spec.segments]
    stats = merge_stats([report.stats for report in ordered])
    host_stats = [stats[name] for name in stats]
    total = (
        host_stats[0].merge(*host_stats[1:]) if host_stats else KernelStats()
    )
    ledger = None
    if spec.ledger:
        ledger = Ledger()
        for report in ordered:
            if report.ledger is not None:
                ledger.merge(report.ledger)
    telemetry = None
    if spec.telemetry:
        telemetry = TelemetrySnapshot()
        for report in ordered:
            if report.telemetry is not None:
                telemetry.merge(report.telemetry)
    return TopologyResult(
        spec=spec,
        shards=shards,
        stats=stats,
        total=total,
        ledger=ledger,
        telemetry=telemetry,
        reports={report.name: report.report for report in ordered},
        wire={report.name: report.wire for report in ordered},
        events_fired=sum(report.events_fired for report in ordered),
        now=max((report.now for report in ordered), default=0.0),
        windows=windows,
        wall_seconds=wall_seconds,
        sync=sync,
        segment_reports=ordered,
        shard_details=shard_details,
    )


def run_topology(
    spec: TopologySpec,
    *,
    shards: int = 1,
    until: float | None = None,
    timeout: float | None = None,
    observability=None,
) -> TopologyResult:
    """Run ``spec`` to quiescence on ``shards`` processes.

    ``shards=1`` runs everything in-process — same windowed algorithm,
    same per-segment worlds, zero IPC — and is the bitwise oracle for
    any larger shard count.  ``until`` optionally stops once every
    pending event lies beyond that simulated time.  A topology still
    running after :data:`MAX_WINDOWS` rounds fails loudly.

    ``timeout`` bounds each shard reply wait (typed
    :class:`~repro.sim.shard.ShardTimeoutError` instead of a hang).

    ``observability`` takes an
    :class:`~repro.sim.obsplane.ObservabilityPlane`: it is pointed at
    this run's sync profile, handed every window reply's alerts, and
    its callbacks fire live as replies come in.  The plane only *reads*
    quiescent state, so the result is bitwise identical armed or off —
    the observer-effect guard pins this.
    """
    spec.validate()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    check_deadline("timeout", timeout)
    plane = observability
    started = time.perf_counter()
    groups = partition(len(spec.segments), shards)
    if len(groups) == 1:
        handles = [LocalShard(spec, groups[0])]
    else:
        handles = [
            ProcessShard(spec, group, shard_id=index, timeout=timeout)
            for index, group in enumerate(groups)
        ]
    shard_of: dict[str, int] = {}
    for shard_index, group in enumerate(groups):
        for segment_index in group:
            shard_of[spec.segments[segment_index].name] = shard_index
    sync = SyncProfile(
        shards=[
            ShardSyncStats(
                shard_id=index,
                segments=[spec.segments[i].name for i in group],
            )
            for index, group in enumerate(groups)
        ]
    )
    if plane is not None:
        plane.sync = sync

    window = spec.window()
    # No bridges (``window is None``): segments are fully independent,
    # so one quiescence grant each (``horizon=None``) is the whole run.
    # Otherwise a priming grant: deliver nothing, report next_time.
    horizon = None if window is None else 0.0
    pending: list = []
    window_index = 0
    windows = 0
    try:
        while True:
            if windows >= MAX_WINDOWS:
                raise RuntimeError(
                    f"exceeded {MAX_WINDOWS} synchronization windows "
                    f"(clock at {horizon}); topology may be livelocked"
                )
            window_started = time.perf_counter()
            outbound: list[list] = [[] for _ in handles]
            for record in pending:
                outbound[shard_of[record.dst_segment]].append(record)
            for index, (handle, frames) in enumerate(zip(handles, outbound)):
                # A grant with no frames is a pure null message — time
                # permission only, the protocol's overhead.
                sync.shards[index].note_grant(len(frames))
                handle.step_send(horizon, frames)
            egress: list = []
            next_times: list[float] = []
            for index, handle in enumerate(handles):
                waited = time.perf_counter()
                reply = handle.step_recv()
                sync.shards[index].note_reply(time.perf_counter() - waited, reply)
                _, _, shard_egress, shard_next, alerts = reply
                if plane is not None:
                    plane.ingest(alerts)
                egress.extend(shard_egress)
                if shard_next is not None:
                    next_times.append(shard_next)
            windows += 1
            sync.note_window(horizon, time.perf_counter() - window_started)
            next_times.extend(record.deliver_at for record in egress)
            if window is None or not next_times:
                break
            earliest = min(next_times)
            if until is not None and earliest > until:
                break
            pending = egress
            # The smallest window-multiple strictly after ``earliest``:
            # floor(e/W)*W <= e < (floor(e/W)+1)*W, and that upper bound
            # is <= e + W, so frames captured in the window (all at
            # times >= earliest, with delay >= W) still deliver at or
            # after the horizon that follows it.  Integer window indices
            # keep the horizon sequence free of accumulated float error.
            window_index = max(
                window_index + 1, math.floor(earliest / window) + 1
            )
            horizon = window_index * window
        by_name: dict[str, SegmentReport] = {}
        for handle in handles:
            for report in handle.collect():
                by_name[report.name] = report
    finally:
        for handle in handles:
            handle.close()
    shard_details = [
        {
            "shard": stats.shard_id,
            "segments": list(stats.segments),
            "events_fired": sum(
                by_name[name].events_fired for name in stats.segments
            ),
            "now": max(
                (by_name[name].now for name in stats.segments), default=0.0
            ),
        }
        for stats in sync.shards
    ]
    return _merge_reports(
        spec,
        by_name,
        shards=len(handles),
        windows=windows,
        wall_seconds=time.perf_counter() - started,
        sync=sync,
        shard_details=shard_details,
    )
