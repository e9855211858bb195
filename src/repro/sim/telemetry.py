"""Live telemetry: time-series sampling and health watchdogs.

The charge ledger (:mod:`repro.sim.ledger`) answers *where the CPU
went* after a run quiesces; it cannot tell you *when* a run went bad.
The receive-livelock work is exactly the regime where time-resolved
signals matter — queue depth, poll-mode occupancy and goodput **over
time**, not their totals.  This module is the paper's §5.4 "substantial
analysis in real time" stance applied to the simulator itself:

* a :class:`Telemetry` sampler — when armed on a world it schedules a
  fixed-interval sim-time tick and snapshots registered *gauges* into
  bounded ring-buffered :class:`Series`;
* a watchdog engine — declarative :class:`WatchdogRule` objects with
  hysteresis, evaluated on every tick, emitting structured
  :class:`Alert` records (fire/clear times and the triggering values);
* built-in detectors for the pathologies the overload and chaos work
  reproduces: receive livelock, buffer-pool exhaustion, sustained
  poll-mode residency, and RTO backoff storms.

Gauges reach the sampler through a *provider hook* on the kernel
(:meth:`repro.sim.kernel.SimKernel.publish_gauges`): the NIC, ports,
the buffer pool and the protocol RTO timers publish callables at
creation time without this module importing any of them.  When no
telemetry is armed the hook is one list append per *component* (never
per packet), so telemetry is off by default and free when off — the
same contract as the ledger.

Determinism: the tick runs on the shared
:class:`repro.sim.clock.EventScheduler`, so two runs of the same seeded
scenario produce bitwise-identical series and alert times.  The tick
keeps itself alive only while the world has other pending events;
once the simulation is otherwise quiescent the sampler parks itself so
``world.run()`` still terminates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

__all__ = [
    "Series",
    "Telemetry",
    "TelemetrySnapshot",
    "Alert",
    "WatchdogRule",
    "SeriesView",
    "builtin_watchdogs",
    "partition_watchdog",
    "INTERVAL",
    "CAPACITY",
    "STAT_GAUGES",
]

INTERVAL = 0.005
"""Seconds of simulated time between sampler ticks."""

CAPACITY = 4096
"""Samples retained per series (a bounded ring; oldest evicted)."""


class Series:
    """A bounded ring buffer of ``(time, value)`` samples for one gauge.

    Samples are plain tuples because a series is shipped as it is
    recorded: a worker pickles its segment's series into the reply to
    ``collect``, and an instance per sample would pickle by reference
    to its class — five times the cost on ``partition_storm``'s 30 000
    samples.
    """

    def __init__(self, host: str, name: str) -> None:
        self.host = host
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=CAPACITY)

    def append(self, time: float, value: float) -> None:
        self._samples.append((time, value))

    def copy(self) -> "Series":
        """A detached series holding the same samples — what
        :meth:`Telemetry.export` puts in a snapshot while the sampler
        keeps appending to this one."""
        clone = Series(self.host, self.name)
        clone._samples.extend(self._samples)
        return clone

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def latest(self) -> float | None:
        """Most recent value (None before the first tick)."""
        if not self._samples:
            return None
        return self._samples[-1][1]

    def rate(self, window: int = 2) -> float | None:
        """Per-second rate of change over the last ``window`` samples.

        For cumulative-counter gauges this is the windowed event rate.
        None when fewer than two samples exist (or time stood still).
        """
        if window < 2 or len(self._samples) < 2:
            return None
        window = min(window, len(self._samples))
        first_at, first = self._samples[-window]
        last_at, last = self._samples[-1]
        dt = last_at - first_at
        if dt <= 0.0:
            return None
        return (last - first) / dt

    def __repr__(self) -> str:
        tail = f", latest={self.latest():g}" if self._samples else ""
        return (
            f"Series({self.host}/{self.name}, {len(self._samples)} samples{tail})"
        )


@dataclass
class Alert:
    """One watchdog firing: when it tripped, when (if) it cleared, and
    the series values that tripped it."""

    rule: str
    host: str
    fired_at: float
    cleared_at: float | None = None
    values: dict[str, float | None] = field(default_factory=dict)
    message: str = ""

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    def render(self) -> str:
        """The alert in words — the one wording every text surface
        (run summary, dashboard, live announcements) shows."""
        end = (
            "active"
            if self.active
            else f"cleared {self.cleared_at * 1000.0:.1f} ms"
        )
        return (
            f"[{self.rule}] {self.host} "
            f"fired {self.fired_at * 1000.0:.1f} ms, {end}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly form, for the one place an alert leaves the
        program as data (:func:`repro.bench.summary.run_summary`)."""
        return {
            "rule": self.rule,
            "host": self.host,
            "fired_at": self.fired_at,
            "cleared_at": self.cleared_at,
            "values": dict(self.values),
            "message": self.message,
        }


class SeriesView:
    """What a watchdog predicate sees: one host's series, by name."""

    def __init__(self, telemetry: "Telemetry", host: str) -> None:
        self._telemetry = telemetry
        self.host = host

    def series(self, name: str) -> Series | None:
        return self._telemetry._series.get((self.host, name))

    def latest(self, name: str) -> float | None:
        series = self.series(name)
        return None if series is None else series.latest()

    def rate(self, name: str, window: int = 2) -> float | None:
        series = self.series(name)
        return None if series is None else series.rate(window)

    def largest(
        self,
        read: Callable[[Series], float | None],
        *,
        prefix: str = "",
        suffix: str = "",
        any_host: bool = False,
    ) -> float | None:
        """Largest ``read(series)`` over every series whose name matches
        ``prefix``/``suffix`` — how the RTO detector watches *any* timer
        on the host without knowing endpoint names.

        ``any_host`` widens the search to **every** host of this
        telemetry instance (one world = one segment, so "every host" is
        segment-local).  The partition watchdog uses it: its own bridge
        gauges live under a segment pseudo-host, but "local traffic is
        healthy" is a claim about the real hosts' series."""
        best: float | None = None
        for (host, name), series in self._telemetry._series.items():
            if not (any_host or host == self.host):
                continue
            if not (name.startswith(prefix) and name.endswith(suffix)):
                continue
            value = read(series)
            if value is not None and (best is None or value > best):
                best = value
        return best


@dataclass
class WatchdogRule:
    """A declarative health rule with hysteresis.

    ``predicate(view)`` is evaluated once per tick per host the rule is
    bound to; after ``fire_after`` consecutive true ticks an
    :class:`Alert` fires, and after ``clear_after`` consecutive false
    ticks an active alert clears.  ``capture`` names the series whose
    latest values are recorded on the alert as the triggering evidence.
    """

    name: str
    predicate: Callable[[SeriesView], bool]
    fire_after: int = 3
    clear_after: int = 6
    capture: tuple[str, ...] = ()
    message: str = ""

    def __post_init__(self) -> None:
        if self.fire_after < 1 or self.clear_after < 1:
            raise ValueError("fire_after and clear_after must be at least 1")


class _RuleState:
    """Per-(rule, host) hysteresis bookkeeping."""

    __slots__ = ("rule", "view", "true_ticks", "false_ticks", "alert")

    def __init__(self, rule: WatchdogRule, view: SeriesView) -> None:
        self.rule = rule
        self.view = view
        self.true_ticks = 0
        self.false_ticks = 0
        self.alert: Alert | None = None


# ---------------------------------------------------------------------------
# built-in detectors
# ---------------------------------------------------------------------------


def _livelock(view: SeriesView) -> bool:
    # Receive livelock signature: the port-overflow drop rate (CPU
    # fully sunk, packet thrown away anyway) exceeds the delivery rate.
    overflow = view.rate("pf.drop_overflow", window=8)
    delivered = view.rate("pf.delivered", window=8)
    if overflow is None or delivered is None:
        return False
    return overflow > 0.0 and overflow > delivered


def _pool_exhausted(view: SeriesView) -> bool:
    denied = view.rate("pool.denied", window=8)
    available = view.latest("pool.available")
    if denied is not None and denied > 0.0:
        return True
    return available is not None and available <= 0


def _poll_residency(view: SeriesView) -> bool:
    polling = view.latest("nic.polling")
    return polling is not None and polling >= 1.0


def _rto_backoff_storm(view: SeriesView) -> bool:
    # Any adaptive retransmission timer at >= 2 consecutive backoffs
    # (4x its base timeout) is in an exponential-backoff episode.
    backoff = view.largest(Series.latest, prefix="rto.", suffix=".backoff")
    return backoff is not None and backoff >= 4.0


def partition_watchdog(link_id: str) -> WatchdogRule:
    """A cross-segment partition detector for one bridge link.

    Bound to a segment's pseudo-host (``segment:<name>``) where the
    bridge gauges live.  The signature of a partition — as opposed to a
    merely idle link or a quiesced segment — is *selective* silence:
    cross-segment frames stop arriving (``bridge.<link>.ingress`` rate
    collapses to zero after having been nonzero) while local traffic
    keeps flowing (some host still delivers packets).  A segment that
    went idle entirely does not fire this rule.
    """
    ingress = f"bridge.{link_id}.ingress"

    def _partitioned(view: SeriesView) -> bool:
        latest = view.latest(ingress)
        if latest is None or latest <= 0.0:
            return False  # never saw cross traffic — nothing collapsed
        rate = view.rate(ingress, window=8)
        if rate is None or rate > 0.0:
            return False  # cross traffic still arriving
        local = view.largest(
            lambda series: series.rate(window=8),
            prefix="pf.",
            suffix="delivered",
            any_host=True,
        )
        return local is not None and local > 0.0

    return WatchdogRule(
        name=f"partition:{link_id}",
        predicate=_partitioned,
        fire_after=4,
        clear_after=4,
        capture=(
            ingress,
            f"bridge.{link_id}.forwarded",
            f"bridge.{link_id}.dropped_link_down",
        ),
        message=(
            "cross-segment goodput collapsed while local traffic stayed "
            f"healthy — link {link_id} looks partitioned"
        ),
    )


def builtin_watchdogs() -> list[WatchdogRule]:
    """The stock detector set, armed per host by default.

    Each rule degrades to "never fires" when the series it watches do
    not exist on a host (no packet filter, no pool, no adaptive RTO).
    """
    return [
        WatchdogRule(
            "receive_livelock",
            _livelock,
            fire_after=4,
            clear_after=8,
            capture=("pf.drop_overflow", "pf.delivered", "cpu_time"),
            message=(
                "drop_overflow rate exceeds delivery rate: CPU is being "
                "sunk into packets that are then thrown away"
            ),
        ),
        WatchdogRule(
            "buffer_pool_exhausted",
            _pool_exhausted,
            fire_after=3,
            clear_after=6,
            capture=("pool.in_use", "pool.available", "pool.denied"),
            message="shared buffer pool exhausted or refusing reservations",
        ),
        WatchdogRule(
            "poll_mode_residency",
            _poll_residency,
            fire_after=8,
            clear_after=4,
            capture=("nic.polling", "nic.ring_depth"),
            message="NIC stuck in budgeted-polling mode (sustained overload)",
        ),
        WatchdogRule(
            "rto_backoff_storm",
            _rto_backoff_storm,
            fire_after=2,
            clear_after=4,
            capture=(),
            message=(
                "a retransmission timer is in exponential backoff "
                "(>= 2 consecutive timeouts without a fresh RTT sample)"
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# snapshots — the picklable, mergeable form
# ---------------------------------------------------------------------------


@dataclass
class TelemetrySnapshot:
    """A :class:`Telemetry`'s recorded data, detached from the live
    world.

    The live sampler holds the scheduler and every kernel — none of it
    picklable, none of it meaningful outside its own process.  A shard
    therefore ships this snapshot back instead: the :class:`Series`
    keyed ``(host, name)`` and the :class:`Alert` log, the same objects
    the sampler records into (copies of them — the form does not
    change on the way out).  Snapshots from
    *disjoint-host* worlds merge into a whole-topology view; a shared
    host means two worlds both claim to have sampled the same kernel,
    which is a partitioning bug and raises.
    """

    series: dict[tuple[str, str], Series] = field(default_factory=dict)
    alerts: list[Alert] = field(default_factory=list)

    def hosts(self) -> set:
        """Every host that contributed a series or an alert."""
        found = {host for (host, _) in self.series}
        found.update(alert.host for alert in self.alerts)
        return found

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold ``other``'s series and alerts into this snapshot (which
        then shares them: a snapshot's records are never written to).

        Alerts are re-sorted by fire time so the merged log reads as
        one timeline.
        """
        overlap = self.hosts() & other.hosts()
        if overlap:
            raise ValueError(
                f"cannot merge telemetry that shares hosts: {sorted(overlap)}"
            )
        self.series.update(other.series)
        self.alerts.extend(other.alerts)
        self.alerts.sort(key=lambda alert: (alert.fired_at, alert.host))
        return self


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

#: ``KernelStats`` counters every host is sampled for, as cumulative
#: gauges under their field names (the ``run --json`` ``hosts.<h>``
#: names).  A rate is :meth:`Series.rate`; ``cpu_time``'s is CPU
#: seconds per second — utilization.
STAT_GAUGES = (
    "cpu_time", "syscalls", "frames_received", "context_switches", "interrupts",
)


class Telemetry:
    """The per-world sampler + watchdog engine.

    Create through :meth:`repro.sim.world.World.enable_telemetry`; the
    world attaches every current and future host.  Between ticks this
    object does nothing — all sampling happens inside the scheduled
    tick callback, on simulated time.
    """

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.armed = False
        self.ticks = 0
        self.alerts: list[Alert] = []
        self._series: dict[tuple[str, str], Series] = {}
        self._gauges: dict[tuple[str, str], Callable[[], float]] = {}
        self._hosts: set[str] = set()
        self._rules: list[_RuleState] = []
        self._default_rules = builtin_watchdogs()
        self._tick_event = None

    # -- registration ----------------------------------------------------

    def attach_host(self, kernel) -> None:
        """Wire one host kernel in: its :data:`STAT_GAUGES`, any gauges
        its components already published, the stock watchdogs, and the
        publish-forwarding hook for components created later."""
        name = kernel.name
        if name in self._hosts:
            return
        self._hosts.add(name)
        kernel.telemetry = self
        self.register_gauges(
            name,
            "",
            {stat: partial(getattr, kernel.stats, stat) for stat in STAT_GAUGES},
        )
        for prefix, gauges in kernel._gauge_providers:
            self.register_gauges(name, prefix, gauges)
        view = SeriesView(self, name)
        for rule in self._default_rules:
            self._rules.append(_RuleState(rule, view))

    def register_gauges(
        self,
        host: str,
        prefix: str,
        gauges: dict[str, Callable[[], float]],
    ) -> None:
        """Register named gauge callables for ``host``; sampled every
        tick into ``prefix + name`` series."""
        for name, fn in gauges.items():
            full = prefix + name
            self._ensure_series(host, full)
            self._gauges[(host, full)] = fn

    def retract_gauges(self, host: str, prefix: str) -> None:
        """Stop sampling every gauge under ``prefix`` (a closed port's
        callables must not outlive the port).  Recorded samples stay."""
        for key in [
            key
            for key in self._gauges
            if key[0] == host and key[1].startswith(prefix)
        ]:
            del self._gauges[key]

    def add_rule(self, rule: WatchdogRule, *, host: str) -> None:
        """Bind an additional watchdog rule to one host."""
        self._rules.append(_RuleState(rule, SeriesView(self, host)))

    def _ensure_series(self, host: str, name: str) -> Series:
        key = (host, name)
        series = self._series.get(key)
        if series is None:
            series = Series(host, name)
            self._series[key] = series
        return series

    # -- reading ----------------------------------------------------------

    def series(self, host: str, name: str) -> Series | None:
        return self._series.get((host, name))

    def alerts_for(
        self, host: str | None = None, *, rule: str | None = None
    ) -> list[Alert]:
        return [
            alert
            for alert in self.alerts
            if (host is None or alert.host == host)
            and (rule is None or alert.rule == rule)
        ]

    # -- the tick ---------------------------------------------------------

    def arm(self) -> None:
        """Start sampling: first tick one interval from now."""
        if self.armed:
            return
        self.armed = True
        self._schedule_tick()

    def resume(self) -> None:
        """Restart the tick after the sampler parked itself quiescent
        (new load arrived after the world went idle)."""
        if self.armed and self._tick_event is None:
            self._schedule_tick()

    def _schedule_tick(self) -> None:
        self._tick_event = self.scheduler.schedule(INTERVAL, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        now = self.scheduler.now
        self.ticks += 1
        for (host, name), fn in self._gauges.items():
            self._series[(host, name)].append(now, float(fn()))
        self._evaluate_watchdogs(now)
        # Keep ticking only while the world has other live events —
        # otherwise the sampler itself would keep the simulation from
        # ever quiescing.  A parked sampler can be resume()d.
        if self.scheduler.next_time() is not None:
            self._schedule_tick()

    def _evaluate_watchdogs(self, now: float) -> None:
        for state in self._rules:
            rule = state.rule
            tripped = bool(rule.predicate(state.view))
            if tripped:
                state.true_ticks += 1
                state.false_ticks = 0
                if state.alert is None and state.true_ticks >= rule.fire_after:
                    alert = Alert(
                        rule=rule.name,
                        host=state.view.host,
                        fired_at=now,
                        values={
                            name: state.view.latest(name)
                            for name in rule.capture
                        },
                        message=rule.message,
                    )
                    state.alert = alert
                    self.alerts.append(alert)
            else:
                state.false_ticks += 1
                state.true_ticks = 0
                if (
                    state.alert is not None
                    and state.false_ticks >= rule.clear_after
                ):
                    state.alert.cleared_at = now
                    state.alert = None

    # -- exporting --------------------------------------------------------

    def export(self) -> TelemetrySnapshot:
        """The sampler's recorded data as a picklable snapshot: copies
        of every series and alert, as they are.  Gauge callables,
        kernels and the scheduler stay behind.  Safe to call any time.
        """
        return TelemetrySnapshot(
            series={key: series.copy() for key, series in self._series.items()},
            alerts=[replace(alert) for alert in self.alerts],
        )
