"""What a run looked like: the one summary of a ``TopologyResult``.

:func:`run_summary` is the only place a finished run becomes a dict;
``python -m repro run NAME --json`` prints it and :func:`render_summary`
is its text mode.  Everything outside the ``wall`` key is simulated and
therefore a pure function of ``(name, seed, segments, duration,
faults)`` — byte-identical across repeats and, apart from ``shards``
and ``shard_details``, across shard counts.  Each fact appears once,
under one name.  ``docs/OBSERVABILITY.md`` documents the schema;
``tests/test_cli.py`` guards it.

``profile=True`` adds what §6.1 got from 28 hours of gprof, per host:
attributed kernel cost by primitive and by component, the packet-span
outcome census, receive-path latency percentiles, and where packets
died.  Everything comes from :class:`repro.sim.ledger.Ledger` events —
no cost-model constant is consulted at reporting time, and nothing is
measured here: host-time costs are ``python -m perfbench``'s job.
"""

from __future__ import annotations

from ..sim.stats import nearest_rank
from ..sim.telemetry import Alert

__all__ = ["run_summary", "render_summary"]

#: The quantiles of ``wall.sync``'s wall-time blocks (``span_latency``
#: keeps the ledger's own).
WALL_QUANTILES = (0.5, 0.95, 0.99)


def _pnn(found: dict[float, float]) -> dict[str, float]:
    """Nearest-rank quantiles keyed ``p50``-style (JSON object keys must
    be strings); ``{}`` when there were no samples."""
    return {f"p{round(q * 100)}": value for q, value in found.items()}


def _host_profiles(result) -> dict:
    """The ledger's per-host charge profile, every host of the run."""
    ledger = result.ledger
    series = result.telemetry.series if result.telemetry else {}
    by_component: dict[str, dict] = {host: {} for host in result.stats}
    for event in ledger.events:
        costs = by_component.get(event.host)
        if costs is not None:   # wire events belong to no host
            costs[event.component] = (
                costs.get(event.component, 0.0) + event.cost
            )
    outcomes: dict[str, dict] = {host: {} for host in result.stats}
    for span in ledger.spans.values():
        census = outcomes[span.host]
        key = span.outcome or "open"
        census[key] = census.get(key, 0) + 1
    return {
        host: {
            "breakdown": ledger.breakdown(host),
            "by_component": by_component[host],
            "span_outcomes": outcomes[host],
            "span_latency": _pnn(ledger.stage_percentiles(host=host)),
            "drops": ledger.drop_summary(host),
            "telemetry_latest": {
                name: recorded.latest()
                for (owner, name), recorded in series.items()
                if owner == host and len(recorded)
            },
        }
        for host in result.stats
    }


def run_summary(name: str, result, *, profile: bool = False) -> dict:
    """Everything ``python -m repro run`` reports about ``result``, the
    :class:`~repro.sim.orchestrator.TopologyResult` of running the
    topology registered as ``name`` (every registered one keeps a
    ledger; ``alerts`` is empty for one that runs without telemetry).

    ``profile`` adds the per-host charge profile.
    """
    spec, total, sync = result.spec, result.total, result.sync
    summary = {
        "topology": name,
        "segments": len(spec.segments),
        "shards": result.shards,
        "seed": spec.seed,
        "duration": spec.segments[0].options.get("duration"),
        "faults": [
            {
                "link_id": fault.link_id,
                "start": fault.start,
                "end": fault.end,
                "direction": fault.direction,
            }
            for fault in spec.faults
        ],
        "windows": result.windows,
        "events_fired": result.events_fired,
        "sim_seconds": result.now,
        "shard_details": [
            {
                "shard": stats.shard_id,
                "segments": stats.segments,
                "events_fired": stats.events_fired,
                "null_grants": stats.null_grants,
                "egress_frames": stats.egress_frames,
                "max_egress_depth": stats.max_egress_depth,
                "inbound_frames": stats.inbound_frames,
            }
            for stats in sync.shards
        ],
        "span_latency": _pnn(result.ledger.stage_percentiles()),
        "frames_received": total.frames_received,
        "frames_sent": total.frames_sent,
        "cpu_time": total.cpu_time,
        "hosts": {
            host: {
                "frames_received": stats.frames_received,
                "frames_sent": stats.frames_sent,
                "cpu_time": stats.cpu_time,
            }
            for host, stats in sorted(result.stats.items())
        },
        "wire": result.wire,
        # The JSON edge: the one place an alert becomes a dict.
        "alerts": [
            alert.to_dict()
            for alert in (result.telemetry.alerts if result.telemetry else [])
        ],
        "reports": result.reports,
        "wall": {
            "wall_seconds": result.wall_seconds,
            "sync": {
                "wall_per_window": sync.wall_per_window,
                "window_advance": _pnn(
                    nearest_rank(sync.window_walls, WALL_QUANTILES)
                ),
                # listed in shard_details order
                "shards": [
                    {
                        "grant_wait_seconds": stats.grant_wait_seconds,
                        "grant_wait": _pnn(
                            nearest_rank(stats.grant_waits, WALL_QUANTILES)
                        ),
                    }
                    for stats in sync.shards
                ],
            },
        },
    }
    if profile:
        summary["profile"] = _host_profiles(result)
    return summary


def _render_host_profile(
    host: str, profile: dict, total: float, alerts: list
) -> list[str]:
    """One host's charge profile (``total``: its simulated CPU time,
    every second of which the ledger attributes; ``alerts``: its
    alert dicts)."""
    lines = [
        "",
        f"=== charge profile: host {host!r} ===",
        f"attributed kernel cost: {total * 1000.0:.3f} ms",
        "",
        f"{'primitive':<20}{'events':>8}{'quantity':>10}"
        f"{'ms':>10}{'share':>8}",
    ]
    for name, row in sorted(
        profile["breakdown"].items(), key=lambda kv: -kv[1]["cost"]
    ):
        share = row["cost"] / total * 100.0 if total else 0.0
        lines.append(
            f"{name:<20}{row['events']:>8}{row['quantity']:>10}"
            f"{row['cost'] * 1000.0:>10.3f}{share:>7.1f}%"
        )
    lines += ["", "by component:"]
    for component, cost in sorted(
        profile["by_component"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"  {component:<12}{cost * 1000.0:>10.3f} ms")
    if profile["span_outcomes"]:
        lines += ["", "packet spans:"]
        for outcome, packets in sorted(
            profile["span_outcomes"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {outcome:<18}{packets:>6}")
    if profile["span_latency"]:
        lines += ["", "wire-arrival -> syscall-return latency:"]
        for name, value in profile["span_latency"].items():
            lines.append(f"  {name:<5}{value * 1000.0:>10.3f} ms")
    if profile["drops"]:
        lines += ["", "drops:"]
        for reason, dropped in sorted(
            profile["drops"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {reason:<16}{dropped:>6}")
    lines += ["", "watchdog alerts:"]
    lines += [f"  {Alert(**shown).render()}" for shown in alerts] or ["  none"]
    return lines


def _render_sync(summary: dict) -> list[str]:
    """The sync-protocol table: the run's windows, and per shard its
    null grants, grant waits and egress."""
    sync = summary["wall"]["sync"]
    lines = [
        "",
        f"sync protocol: {summary['windows']} windows, "
        f"{sync['wall_per_window'] * 1000.0:.3f} ms wall/window",
        "window advance: "
        + " ".join(
            f"{name}={value * 1000.0:.3f}ms"
            for name, value in sync["window_advance"].items()
        ),
        f"{'shard':>5} {'segments':<18} {'null':>6} "
        f"{'wait ms':>9} {'wait p95':>9} {'egress':>7} {'depth':>6}",
    ]
    for detail, wall in zip(summary["shard_details"], sync["shards"]):
        lines.append(
            f"{detail['shard']:>5} "
            f"{','.join(detail['segments']):<18} "
            f"{detail['null_grants']:>6} "
            f"{wall['grant_wait_seconds'] * 1000.0:>9.2f} "
            f"{wall['grant_wait']['p95'] * 1000.0:>9.3f} "
            f"{detail['egress_frames']:>7} {detail['max_egress_depth']:>6}"
        )
    return lines


def render_summary(summary: dict) -> str:
    """The text mode of :func:`run_summary`; a ``--profile`` summary
    also gets each host's charge profile and the sync-protocol table."""
    wall, faults = summary["wall"], summary["faults"]
    head = (
        f"{summary['topology']}: {summary['segments']} segment(s) on "
        f"{summary['shards']} shard(s), seed {summary['seed']}"
    )
    if faults:
        head += f", {len(faults)} scheduled fault(s)"
    lines = [
        head,
        f"  {summary['events_fired']} events over {summary['windows']} "
        f"windows; sim {summary['sim_seconds'] * 1000.0:.1f} ms in wall "
        f"{wall['wall_seconds']:.3f} s "
        f"({wall['sync']['wall_per_window'] * 1000.0:.2f} ms/window)",
        f"  totals: {summary['frames_sent']} frames sent, "
        f"{summary['frames_received']} received, "
        f"{summary['cpu_time'] * 1000.0:.2f} ms simulated CPU",
    ]
    for detail in summary["shard_details"]:
        lines.append(
            f"  shard {detail['shard']}: {','.join(detail['segments'])} — "
            f"{detail['events_fired']} events"
        )
    for fault in faults:
        lines.append(
            f"  fault: {fault['link_id']} down "
            f"[{fault['start']:.3f}, {fault['end']:.3f}) {fault['direction']}"
        )
    if faults:
        dropped = {
            segment: wire["frames_dropped_link_down"]
            for segment, wire in summary["wire"].items()
        }
        lines.append(
            f"  dropped_link_down: {sum(dropped.values())} ({dropped})"
        )
    alerts = summary["alerts"]
    lines.append(f"  {len(alerts)} alert(s):" if alerts else "  no alerts fired")
    lines += [f"    {Alert(**shown).render()}" for shown in alerts]
    for segment, report in summary["reports"].items():
        lines.append(f"  {segment}: {report}")
    for host, profile in summary.get("profile", {}).items():
        total = summary["hosts"][host]["cpu_time"]
        if total:   # a costs=FREE host has no bill
            lines += _render_host_profile(
                host,
                profile,
                total,
                [shown for shown in alerts if shown["host"] == host],
            )
    if "profile" in summary:
        lines += _render_sync(summary)
    return "\n".join(lines)
