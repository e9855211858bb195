"""``python -m repro profile <scenario>`` — the ledger as a profiler.

Each scenario runs a canned workload in a ledger-enabled world and the
renderer prints what §6.1 got from 28 hours of gprof: attributed kernel
cost by primitive and by component, the packet-span outcome census,
per-stage receive-path latency percentiles, and where packets died.
Everything comes from :class:`repro.sim.ledger.Ledger` events — no
cost-model constant is consulted at reporting time.
"""

from __future__ import annotations

from ..core.demux import Engine
from ..core.ioctl import PFIoctl
from ..sim import Ioctl, Open, Read, Sleep, World, Write
from .scenarios import (
    _payload,
    _test_filter,
    run_bsp_chaos,
    run_overload_storm,
    run_pup_echo_chaos,
    run_rarp_chaos,
    run_vmtp_chaos,
)

__all__ = [
    "SCENARIOS",
    "classification_costs",
    "run_profile",
    "run_scenario",
    "render_profile",
    "profile_report",
]


def classification_costs(
    *, filters: int = 32, min_seconds: float = 0.02
) -> dict[str, float]:
    """Wall-clock seconds per delivered packet for each demux engine.

    The ledger sections above attribute the *cost model's* constants;
    this line is the one number the model cannot supply — what filter
    classification actually costs in this Python on this machine, per
    engine, on the standard 32-filter workload the §7 ablation uses.
    """
    from .scenarios import measure_demux_throughput

    return {
        engine.value: 1.0
        / measure_demux_throughput(
            engine=engine, filters=filters, min_seconds=min_seconds
        )
        for engine in Engine
    }


def _profile_receive(*, packet_bytes: int = 128, count: int = 40) -> dict:
    """The clean paced receive path (table 6-8's kernel-demux row)."""
    world = World(ledger=True, telemetry=True)
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()

    def send_body():
        fd = yield Open("pf")
        frame = _payload(sender, packet_bytes, receiver.address)
        yield Sleep(0.05)
        for _ in range(count):
            yield Write(fd, frame)
            yield Sleep(0.012)

    def receive_body():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, _test_filter())
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
        received = 0
        while received < count:
            received += len((yield Read(fd)))

    dest = receiver.spawn("dest", receive_body())
    sender.spawn("sender", send_body())
    world.run_until_done(dest)
    return {"world": world, "host": "receiver"}


def _chaos_scenario(runner, host: str):
    def run() -> dict:
        result = runner(seed=11, ledger=True, telemetry=True)
        result["host"] = host
        return result

    return run


def _profile_overload(mode: str):
    def run() -> dict:
        result = run_overload_storm(
            mode=mode, offered_multiplier=4.0, duration=0.5, telemetry=True
        )
        result["host"] = "receiver"
        return result

    return run


SCENARIOS = {
    "receive": _profile_receive,
    "bsp-chaos": _chaos_scenario(run_bsp_chaos, "receiver"),
    "vmtp-chaos": _chaos_scenario(run_vmtp_chaos, "client"),
    "rarp-chaos": _chaos_scenario(run_rarp_chaos, "client"),
    "pup-chaos": _chaos_scenario(run_pup_echo_chaos, "client"),
    "overload-interrupt": _profile_overload("interrupt"),
    "overload-polling": _profile_overload("polling"),
}
"""Name -> runner; each returns a dict with ``world`` and ``host``."""


def run_scenario(scenario: str) -> dict:
    """Run one named scenario; returns its result dict (``world`` and
    ``host`` always present, telemetry armed, ledger on)."""
    try:
        runner = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown profile scenario {scenario!r}; "
            f"choose from {', '.join(sorted(SCENARIOS))}"
        ) from None
    result = runner()
    result.setdefault("scenario", scenario)
    return result


def run_profile(scenario: str) -> str:
    """Run one named scenario and return its rendered profile."""
    result = run_scenario(scenario)
    return render_profile(result["world"], result["host"])


def profile_report(world: World, host: str, *, scenario: str | None = None) -> dict:
    """The machine-readable profile: everything :func:`render_profile`
    prints, as JSON-serializable structures (the ``--json`` CLI path).
    """
    ledger = world.ledger
    by_component: dict[str, float] = {}
    for event in ledger.iter_events(host):
        by_component[event.component] = (
            by_component.get(event.component, 0.0) + event.cost
        )
    outcomes: dict[str, int] = {}
    for span in ledger.spans_for(host):
        key = span.outcome or "open"
        outcomes[key] = outcomes.get(key, 0) + 1
    telemetry = world.telemetry
    alerts = []
    series = {}
    if telemetry is not None:
        alerts = [alert.to_dict() for alert in telemetry.alerts_for(host)]
        series = {
            s.name: s.latest() for s in telemetry.series_for(host)
        }
    return {
        "scenario": scenario,
        "host": host,
        "sim_seconds": world.now,
        "total_cost_seconds": ledger.total_cost(host),
        "breakdown": ledger.breakdown(host),
        "by_component": by_component,
        "span_outcomes": outcomes,
        "stage_percentiles_seconds": {
            # JSON object keys must be strings; "p50"-style reads best.
            f"p{round(p * 100)}": value
            for p, value in ledger.stage_percentiles(host=host).items()
        },
        "drops": ledger.drop_summary(host),
        "alerts": alerts,
        "telemetry_latest": series,
        "classification_seconds_per_packet": classification_costs(),
    }


def render_profile(world: World, host: str) -> str:
    """Format a ledger-enabled world's trace for one host."""
    ledger = world.ledger
    total = ledger.total_cost(host)
    lines = [
        f"=== charge profile: host {host!r}, "
        f"{world.now * 1000.0:.1f} simulated ms ===",
        "",
        f"attributed kernel cost: {total * 1000.0:.3f} ms",
        "",
        f"{'primitive':<20}{'events':>8}{'quantity':>10}"
        f"{'ms':>10}{'share':>8}",
    ]
    for name, row in sorted(
        ledger.breakdown(host).items(), key=lambda kv: -kv[1]["cost"]
    ):
        share = row["cost"] / total * 100.0 if total else 0.0
        lines.append(
            f"{name:<20}{row['events']:>8}{row['quantity']:>10}"
            f"{row['cost'] * 1000.0:>10.3f}{share:>7.1f}%"
        )

    by_component: dict[str, float] = {}
    for event in ledger.iter_events(host):
        by_component[event.component] = (
            by_component.get(event.component, 0.0) + event.cost
        )
    lines += ["", "by component:"]
    for component, cost in sorted(by_component.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {component:<12}{cost * 1000.0:>10.3f} ms")

    outcomes: dict[str, int] = {}
    for span in ledger.spans_for(host):
        key = span.outcome or "open"
        outcomes[key] = outcomes.get(key, 0) + 1
    if outcomes:
        lines += ["", "packet spans:"]
        for outcome, packets in sorted(outcomes.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {outcome:<18}{packets:>6}")

    percentiles = ledger.stage_percentiles(host=host)
    if percentiles:
        lines += ["", "wire-arrival -> syscall-return latency:"]
        for p, value in sorted(percentiles.items()):
            lines.append(f"  p{int(p * 100):<4}{value * 1000.0:>10.3f} ms")

    drops = ledger.drop_summary(host)
    if drops:
        lines += ["", "drops:"]
        for reason, dropped in sorted(drops.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {reason:<16}{dropped:>6}")

    telemetry = world.telemetry
    if telemetry is not None:
        alerts = telemetry.alerts_for(host)
        lines += ["", "watchdog alerts:"]
        if alerts:
            for alert in alerts:
                end = (
                    "still active"
                    if alert.cleared_at is None
                    else f"cleared {alert.cleared_at * 1000.0:.1f} ms"
                )
                lines.append(
                    f"  {alert.rule:<22}fired "
                    f"{alert.fired_at * 1000.0:>8.1f} ms, {end}"
                )
        else:
            lines.append("  none")

    lines += ["", "classification cost per engine (32 filters, wall-clock):"]
    for engine, cost in classification_costs().items():
        lines.append(f"  {engine:<14}{cost * 1e6:>10.2f} us/packet")

    return "\n".join(lines)
