"""The sharding oracle: canonical digests over a merged topology run.

The conservative parallel simulator's whole claim is *partition
independence*: running a topology on one process or on N is not allowed
to change a single observable — not a counter, not a float, not a
packet's fate.  These helpers reduce a merged
:class:`~repro.sim.orchestrator.TopologyResult` to canonical strings and
SHA-256 digests so that claim becomes a one-line assertion:

``run_digest(run_topology(spec, shards=1)) ==
run_digest(run_topology(spec, shards=4))``

Floats are rendered with ``repr`` — the shortest string that
round-trips the exact IEEE-754 value — so two digests agree iff every
float is *bitwise* equal, which is the acceptance bar (merge order is
fixed to segment-declaration order precisely so float sums reproduce).

Like :meth:`repro.difftest.harness.RunResult.digest`, nothing here
depends on ``hash()`` ordering, so digests are also stable across
``PYTHONHASHSEED`` values (the determinism suite runs them in
subprocesses to prove it).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

__all__ = [
    "stats_fingerprint",
    "span_fingerprint",
    "alert_timeline_fingerprint",
    "stats_digest",
    "outcome_digest",
    "alert_timeline_digest",
    "run_digest",
    "flow_storm_digest",
    "partition_storm_digest",
]


def _scalar(value) -> str:
    """Canonical text for one leaf value (repr floats bitwise)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def stats_fingerprint(result) -> list[str]:
    """One line per (host, counter): the merged per-host stats view."""
    lines = []
    for host in sorted(result.stats):
        stats = result.stats[host]
        for f in fields(stats):
            lines.append(f"{host}.{f.name}={_scalar(getattr(stats, f.name))}")
    return lines


def span_fingerprint(result) -> list[str]:
    """One line per packet span: id, host, flow, stages, fate.

    Span ids are globally unique after the merge and the merge order is
    deterministic, so the same packet gets the same id on any shard
    count; sorting by id makes the listing canonical without relying on
    dict order.
    """
    lines = []
    for packet_id in sorted(result.ledger.spans):
        span = result.ledger.spans[packet_id]
        stages = ";".join(
            f"{stage}@{_scalar(when)}" for stage, when in span.stages
        )
        lines.append(
            f"{packet_id}:{span.host}:{span.flow!r}:[{stages}]"
            f":{span.outcome}@{_scalar(span.closed_at)}"
        )
    return lines


def alert_timeline_fingerprint(result) -> list[str]:
    """One line per watchdog alert: rule, host, fire/clear times, the
    triggering values.

    The merged telemetry re-sorts alerts by ``(fired_at, host)``, so a
    1-shard and an N-shard run must produce the identical timeline —
    watchdogs evaluate per-world state, which partitioning may not
    change.
    """
    if result.telemetry is None:
        return []
    lines = []
    for alert in result.telemetry.alerts:
        values = ",".join(
            f"{name}={_scalar(alert.values[name])}"
            for name in sorted(alert.values)
        )
        lines.append(
            f"{alert.rule}:{alert.host}"
            f"@{_scalar(alert.fired_at)}"
            f"..{_scalar(alert.cleared_at)}:[{values}]"
        )
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def stats_digest(result) -> str:
    """SHA-256 over the merged per-host counters (floats bitwise)."""
    return _digest(stats_fingerprint(result))


def outcome_digest(result) -> str:
    """SHA-256 over every packet's per-stage timeline and fate."""
    return _digest(span_fingerprint(result))


def alert_timeline_digest(result) -> str:
    """SHA-256 over the merged watchdog alert timeline — the
    sharded-telemetry parity oracle."""
    return _digest(alert_timeline_fingerprint(result))


def run_digest(result) -> str:
    """The full oracle: stats + spans + wire counters + segment reports.

    Everything a run observably produced, except wall-clock time and the
    shard count itself (the two things partitioning *is allowed* to
    change).
    """
    lines = [
        f"events_fired={result.events_fired}",
        f"now={_scalar(result.now)}",
        f"windows={result.windows}",
    ]
    lines.extend(stats_fingerprint(result))
    lines.extend(span_fingerprint(result))
    for segment in sorted(result.wire):
        counters = result.wire[segment]
        for name in sorted(counters):
            lines.append(f"wire.{segment}.{name}={_scalar(counters[name])}")
    for segment in sorted(result.reports):
        report = result.reports[segment]
        for key in sorted(report):
            value = report[key]
            if isinstance(value, dict):
                rendered = ",".join(
                    f"{k}={_scalar(value[k])}" for k in sorted(value)
                )
            else:
                rendered = _scalar(value)
            lines.append(f"report.{segment}.{key}={rendered}")
    return _digest(lines)


def flow_storm_digest(
    *,
    segments: int = 2,
    shards: int = 1,
    seed: int = 0,
    duration: float = 0.1,
    **options,
) -> str:
    """Run the flow-cache miss storm and digest it — the one-call form
    the subprocess determinism tests and the shard-count sweep share."""
    from ..bench.scenarios import run_flow_storm

    outcome = run_flow_storm(
        segments=segments,
        shards=shards,
        seed=seed,
        duration=duration,
        **options,
    )
    return run_digest(outcome["result"])


def partition_storm_digest(
    *,
    segments: int = 2,
    shards: int = 1,
    seed: int = 0,
    duration: float = 1.2,
    **options,
) -> str:
    """Run the partition storm and digest it.

    Link faults and (when ``recovery``/``hazards`` options inject them)
    shard crashes must both be invisible to this digest's
    shard-count/fault-free comparisons: dropped frames land in the
    ledger identically no matter who owns the segment, and a recovered
    shard replays to bitwise-identical state.
    """
    from ..bench.scenarios import run_partition_storm

    outcome = run_partition_storm(
        segments=segments,
        shards=shards,
        seed=seed,
        duration=duration,
        **options,
    )
    return run_digest(outcome["result"])
