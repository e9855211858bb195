"""Chrome trace-event / Perfetto JSON export for simulated runs.

Everything the ledger and the telemetry sampler record maps naturally
onto the Chrome trace-event format (the JSON flavour Perfetto's
https://ui.perfetto.dev loads directly):

* each **host** becomes a process (``pid``), each charging **component**
  (``nic``, ``pf``, ``sched``, ``udp``, ...) a thread (``tid``) inside
  it — named through ``M`` metadata events;
* every :class:`~repro.sim.ledger.ChargeEvent` with nonzero cost
  becomes a complete slice (``ph: "X"``) — the ``sched`` thread's
  slices are the per-host context-switch timeline;
* every :class:`~repro.sim.ledger.PacketSpan` becomes an async event
  (``ph: "b"/"n"/"e"``, one ``id`` per packet): begin at wire arrival,
  an instant per pipeline stage, end at the close with the outcome in
  ``args`` — a packet's whole kernel path on one track;
* every telemetry :class:`~repro.sim.telemetry.Series` becomes a
  counter track (``ph: "C"``, one event per sample);
* every watchdog :class:`~repro.sim.telemetry.Alert` becomes a pair of
  process-scoped instants (``ph: "i"``) at fire and clear time.

Timestamps are simulated microseconds (the format's native unit), so
one simulated second reads as one second in the viewer.

:func:`validate_trace` is the structural schema check the tests and the
CI artifact step share.

:func:`build_topology_trace` stitches an **N-shard run** into one
document: a process track per shard (window-boundary slices from the
sync profile's deterministic horizons, an egress-depth counter), flow
events (``ph: "s"/"f"``) joining each packet's bridge crossing from the
capturing shard to the delivering one — keyed ``(link_id, seq)``, the
same identity the bridges themselves use — plus the merged ledger and
telemetry as described above.  Every
timestamp is simulated time and no wall clock enters the document, so
repeating a run (same seed, same shard count) exports a byte-identical
trace on any machine.  ``python -m repro run NAME --trace FILE`` writes
this one, whatever the shard count (a single-world scenario is a
one-segment, one-shard stitch).
"""

from __future__ import annotations

import json

__all__ = [
    "build_topology_trace",
    "write_topology_trace",
    "validate_trace",
]

_SECONDS_TO_US = 1e6


def _us(seconds: float) -> float:
    return seconds * _SECONDS_TO_US


class _IdAllocator:
    """Stable small-integer ids for hosts (pids) and components (tids)."""

    def __init__(self) -> None:
        self.pids: dict[str, int] = {}
        self.tids: dict[tuple[int, str], int] = {}

    def pid(self, host: str) -> int:
        if host not in self.pids:
            self.pids[host] = len(self.pids) + 1
        return self.pids[host]

    def tid(self, pid: int, component: str) -> int:
        key = (pid, component)
        if key not in self.tids:
            # tids only need to be unique within a pid; count per pid.
            self.tids[key] = (
                sum(1 for existing in self.tids if existing[0] == pid) + 1
            )
        return self.tids[key]


def _emit_ledger_events(ids, events, ledger) -> None:
    """Charge slices and packet-span async events from one ledger."""
    for event in ledger.events:
        if event.cost <= 0.0:
            continue
        pid = ids.pid(event.host)
        events.append(
            {
                "name": event.primitive.value,
                "cat": "charge",
                "ph": "X",
                "ts": _us(event.sim_time),
                "dur": _us(event.cost),
                "pid": pid,
                "tid": ids.tid(pid, event.component),
                "args": {
                    "quantity": event.quantity,
                    "packet_id": event.packet_id,
                    "flow": repr(event.flow) if event.flow is not None else None,
                },
            }
        )

    # -- packet spans as async (nestable) events --------------------------
    for span in ledger.spans.values():
        if not span.stages:
            continue
        pid = ids.pid(span.host)
        span_id = str(span.packet_id)
        begin_at = span.stages[0][1]
        common = {"cat": "packet", "id": span_id, "pid": pid}
        events.append(
            {
                "name": "packet",
                "ph": "b",
                "ts": _us(begin_at),
                **common,
                "args": {
                    "flow": repr(span.flow) if span.flow is not None else None
                },
            }
        )
        for stage, at in span.stages:
            events.append(
                {
                    "name": "packet",
                    "ph": "n",
                    "ts": _us(at),
                    **common,
                    "args": {"stage": stage},
                }
            )
        end_at = (
            span.closed_at
            if span.closed_at is not None
            else span.stages[-1][1]
        )
        events.append(
            {
                "name": "packet",
                "ph": "e",
                "ts": _us(end_at),
                **common,
                "args": {"outcome": span.outcome or "open"},
            }
        )


def _emit_telemetry(ids, events, snapshot) -> None:
    """Counter tracks and alert instants from one
    :class:`~repro.sim.telemetry.TelemetrySnapshot`."""
    for series in snapshot.series.values():
        pid = ids.pid(series.host)
        for at, value in series:
            events.append(
                {
                    "name": series.name,
                    "cat": "telemetry",
                    "ph": "C",
                    "ts": _us(at),
                    "pid": pid,
                    "args": {"value": value},
                }
            )
    for alert in snapshot.alerts:
        pid = ids.pid(alert.host)
        base = {
            "cat": "alert",
            "ph": "i",
            "s": "p",  # process-scoped instant: a full-height marker
            "pid": pid,
            "tid": ids.tid(pid, "watchdog"),
        }
        events.append(
            {
                "name": f"ALERT {alert.rule}",
                "ts": _us(alert.fired_at),
                **base,
                "args": {"message": alert.message, "values": dict(alert.values)},
            }
        )
        if alert.cleared_at is not None:
            events.append(
                {
                    "name": f"CLEAR {alert.rule}",
                    "ts": _us(alert.cleared_at),
                    **base,
                    "args": {"fired_at_us": _us(alert.fired_at)},
                }
            )


def _emit_metadata(ids, raw_names: frozenset) -> list[dict]:
    """``M`` events naming every allocated process and thread.

    Names in ``raw_names`` (the ``shard:N`` tracks) are used verbatim;
    everything else is a host and labelled ``host:<name>``.
    """
    metadata: list[dict] = []
    for name, pid in sorted(ids.pids.items(), key=lambda kv: kv[1]):
        label = name if name in raw_names else f"host:{name}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        )
        metadata.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "args": {"sort_index": pid},
            }
        )
    for (pid, component), tid in sorted(ids.tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": component},
            }
        )
    return metadata


def build_topology_trace(result) -> dict:
    """Stitch one N-shard :class:`~repro.sim.orchestrator.TopologyResult`
    into a single Chrome trace-event document.

    Track layout:

    * one process per shard (``shard:N``, sorted first) carrying a
      ``sync`` thread of window-boundary slices (simulated horizons from
      the sync profile — deterministic, unlike its wall clocks), an
      ``egress`` counter of frames handed back per window, and one
      thread per bridge endpoint the shard owns;
    * ``ph: "s"/"f"`` flow events join each bridge crossing from the
      capturing shard to the delivering shard, keyed ``link_id#seq`` —
      the identity bridges already stamp — each anchored to an ``X``
      slice (the hop in flight on the source, a zero-width delivery
      mark on the destination);
    * the merged ledger and telemetry: per-host processes with charge
      slices, packet spans, counter tracks and alert instants.

    Everything is keyed to simulated time; repeating the same run
    (seed, shard count) emits a byte-identical document — pinned by a
    regression test.  The *simulation payload* (spans, counters,
    alerts) is additionally shard-count-invariant; only the shard track
    layout reflects the partitioning.
    """
    ids = _IdAllocator()
    events: list[dict] = []
    shard_names: list[str] = []

    shard_of: dict[str, int] = {}
    sync = result.sync
    for stats in sync.shards:
        name = f"shard:{stats.shard_id}"
        shard_names.append(name)
        pid = ids.pid(name)
        for segment in stats.segments:
            shard_of[segment] = pid

    # -- window-boundary slices and per-shard egress counters -------------
    horizons = [h for h in sync.horizons if h is not None]
    for name, stats in zip(shard_names, sync.shards):
        pid = ids.pid(name)
        tid = ids.tid(pid, "sync")
        previous = 0.0
        for index, horizon in enumerate(horizons):
            events.append(
                {
                    "name": f"window {index}",
                    "cat": "sync",
                    "ph": "X",
                    "ts": _us(previous),
                    "dur": _us(max(horizon - previous, 0.0)),
                    "pid": pid,
                    "tid": tid,
                    "args": {"horizon": horizon},
                }
            )
            if index < len(stats.egress_per_window):
                events.append(
                    {
                        "name": "egress",
                        "cat": "sync",
                        "ph": "C",
                        "ts": _us(horizon),
                        "pid": pid,
                        "args": {"value": stats.egress_per_window[index]},
                    }
                )
            previous = horizon

    # -- bridge crossings: hop slices + s/f flow events --------------------
    # Capture order within an endpoint is deterministic; reports iterate
    # in spec order, so the event stream reproduces bitwise.
    for report in result.segment_reports:
        for link_id, seq, captured_at, deliver_at, src, dst in report.flows:
            src_pid = shard_of.get(src)
            dst_pid = shard_of.get(dst)
            if src_pid is None or dst_pid is None:
                continue
            flow_id = f"{link_id}#{seq}"
            src_tid = ids.tid(src_pid, f"bridge:{link_id}")
            dst_tid = ids.tid(dst_pid, f"bridge:{link_id}")
            hop = {
                "cat": "bridge",
                "args": {"link": link_id, "seq": seq, "src": src, "dst": dst},
            }
            events.append(
                {
                    "name": f"hop {link_id}",
                    "ph": "X",
                    "ts": _us(captured_at),
                    "dur": _us(deliver_at - captured_at),
                    "pid": src_pid,
                    "tid": src_tid,
                    **hop,
                }
            )
            events.append(
                {
                    "name": f"hop {link_id}",
                    "ph": "X",
                    "ts": _us(deliver_at),
                    "dur": 0,
                    "pid": dst_pid,
                    "tid": dst_tid,
                    **hop,
                }
            )
            events.append(
                {
                    "name": f"hop {link_id}",
                    "cat": "flow",
                    "ph": "s",
                    "ts": _us(captured_at),
                    "id": flow_id,
                    "pid": src_pid,
                    "tid": src_tid,
                }
            )
            events.append(
                {
                    "name": f"hop {link_id}",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "ts": _us(deliver_at),
                    "id": flow_id,
                    "pid": dst_pid,
                    "tid": dst_tid,
                }
            )

    # -- merged ledger: charge slices and packet spans ---------------------
    if result.ledger is not None:
        _emit_ledger_events(ids, events, result.ledger)

    # -- merged telemetry snapshot: counters and alert instants ------------
    if result.telemetry is not None:
        _emit_telemetry(ids, events, result.telemetry)

    metadata = _emit_metadata(ids, frozenset(shard_names))
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.bench.traceout",
            "sim_seconds": result.now,
            "shards": result.shards,
            "windows": result.windows,
            "hosts": sorted(
                name for name in ids.pids if name not in set(shard_names)
            ),
        },
    }


def write_topology_trace(result, path) -> dict:
    """Build the stitched topology trace and write it to ``path``;
    returns the document."""
    doc = build_topology_trace(result)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return doc


#: required keys per event phase, on top of ``name``/``ph``/``pid``.
_PHASE_REQUIRED = {
    "X": ("ts", "dur", "tid"),
    "C": ("ts", "args"),
    "b": ("ts", "id", "cat"),
    "n": ("ts", "id", "cat"),
    "e": ("ts", "id", "cat"),
    "s": ("ts", "id", "cat", "tid"),
    "f": ("ts", "id", "cat", "tid"),
    "i": ("ts",),
    "M": ("args",),
}


def validate_trace(doc) -> list[str]:
    """Structural schema check; returns a list of problems (empty =
    valid).  Shared by the unit tests and the CI artifact step.

    Beyond per-event keys it checks two cross-event invariants the
    stitched trace relies on: every ``pid`` referenced by an event must
    be named by a ``process_name`` metadata record (an anonymous track
    renders as garbage in Perfetto), and every flow id must have both
    its start (``s``) and finish (``f``) half — an unpaired flow arrow
    points at nothing.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    named_pids: set = set()
    used_pids: set = set()
    flow_starts: set = set()
    flow_ends: set = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASE_REQUIRED:
            problems.append(f"event {index} has unknown phase {phase!r}")
            continue
        if "name" not in event or "pid" not in event:
            problems.append(f"event {index} ({phase}) lacks name/pid")
        for key in _PHASE_REQUIRED[phase]:
            if key not in event:
                problems.append(f"event {index} ({phase}) lacks {key!r}")
        ts = event.get("ts")
        if ts is not None and (not isinstance(ts, (int, float)) or ts < 0):
            problems.append(f"event {index} has bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {index} has bad dur {dur!r}")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or "value" not in args:
                problems.append(f"event {index} (C) lacks args.value")
        if phase == "M":
            if event.get("name") == "process_name":
                named_pids.add(event.get("pid"))
        elif "pid" in event:
            used_pids.add(event["pid"])
        if phase == "s":
            flow_starts.add(event.get("id"))
        elif phase == "f":
            flow_ends.add(event.get("id"))
    for pid in sorted(used_pids - named_pids):
        problems.append(f"pid {pid} has no process_name metadata")
    for flow_id in sorted(flow_starts - flow_ends):
        problems.append(f"flow {flow_id!r} starts but never finishes")
    for flow_id in sorted(flow_ends - flow_starts):
        problems.append(f"flow {flow_id!r} finishes but never starts")
    return problems
