"""The telemetry sampler, watchdog engine and gauge-provider hook.

Covers the whole tentpole contract: bounded ring-buffered series and
windowed rates, gauge registration/retraction through the kernel hook,
watchdog hysteresis (fire-after / clear-after), every built-in
detector, sampler self-parking and resume, bitwise determinism across
seeded runs, and the free-when-off guarantee (armed telemetry must not
perturb the simulation it observes).
"""

import pytest

from repro.bench.scenarios import run_bsp_chaos, run_overload_storm
from repro.core import Engine, PFIoctl, compile_expr, word
from repro.sim import (
    Close,
    Ioctl,
    Open,
    SigWait,
    Sleep,
    Telemetry,
    WatchdogRule,
    World,
    builtin_watchdogs,
)
from repro.sim.overload import BufferPool
from repro.sim.clock import EventScheduler
from repro.sim.stats import KernelStats
from repro.sim.telemetry import CAPACITY, INTERVAL, STAT_GAUGES, Series


class _FakeKernel:
    """The minimum a kernel must look like for ``attach_host``."""

    def __init__(self, name: str = "h") -> None:
        self.name = name
        self.stats = KernelStats()
        self._gauge_providers: list = []
        self.telemetry = None


def armed_telemetry(*, horizon: float = 10.0):
    """A telemetry instance on a bare scheduler, kept alive by one
    far-future keepalive event so ticks self-sustain until ``horizon``.
    It ticks every ``INTERVAL`` (5 ms)."""
    scheduler = EventScheduler()
    telemetry = Telemetry(scheduler)
    kernel = _FakeKernel()
    telemetry.attach_host(kernel)
    scheduler.schedule(horizon, lambda: None)
    telemetry.arm()
    return scheduler, telemetry, kernel


class TestSeries:
    def test_append_latest_and_samples(self):
        series = Series("h", "g")
        assert series.latest() is None
        series.append(0.0, 1.0)
        series.append(0.1, 3.0)
        assert series.latest() == 3.0
        assert list(series) == series.samples == [(0.0, 1.0), (0.1, 3.0)]

    def test_bounded_ring_evicts_oldest(self):
        series = Series("h", "g")
        for n in range(CAPACITY + 2):
            series.append(float(n), float(n))
        assert len(series) == CAPACITY
        assert series.samples[0] == (2.0, 2.0)
        assert series.latest() == float(CAPACITY + 1)

    def test_rate_is_windowed(self):
        series = Series("h", "g")
        assert series.rate() is None               # no samples
        series.append(0.0, 0.0)
        assert series.rate() is None               # one sample
        series.append(1.0, 10.0)
        series.append(2.0, 30.0)
        assert series.rate(window=2) == pytest.approx(20.0)
        assert series.rate(window=3) == pytest.approx(15.0)
        # a window larger than the history clamps instead of failing
        assert series.rate(window=99) == pytest.approx(15.0)

    def test_rate_none_when_time_stands_still(self):
        series = Series("h", "g")
        series.append(1.0, 5.0)
        series.append(1.0, 9.0)
        assert series.rate() is None


class TestSampler:
    def test_stat_rate_series_sampled_each_tick(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=0.1)
        kernel.stats.syscalls = 3
        scheduler.run(until=0.055)
        series = telemetry.series("h", "syscalls")
        assert len(series) == telemetry.ticks > 0
        # the counter itself, cumulative; flat -> rate zero
        assert series.latest() == 3.0
        assert series.rate() == 0.0
        for stat in STAT_GAUGES:
            assert len(telemetry.series("h", stat)) == telemetry.ticks

    def test_cpu_util_is_windowed_utilization(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=0.1)
        # burn half a tick of CPU every tick via a scheduled burner
        def burn():
            kernel.stats.cpu_time += INTERVAL / 2
            scheduler.schedule(INTERVAL, burn)

        scheduler.schedule(0.0, burn)
        scheduler.run(until=0.055)
        assert telemetry.series("h", "cpu_time").rate() == pytest.approx(0.5)

    def test_registered_gauges_sampled_and_retracted(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        box = {"v": 7.0}
        telemetry.register_gauges("h", "dev.", {"depth": lambda: box["v"]})
        scheduler.run(until=0.035)
        series = telemetry.series("h", "dev.depth")
        assert (series.host, series.name) == ("h", "dev.depth")
        before = len(series)
        assert series.latest() == 7.0
        telemetry.retract_gauges("h", "dev.")
        scheduler.run(until=0.075)
        # recorded samples stay; no new ones arrive after retraction
        assert len(series) == before
        assert telemetry.ticks > before

    def test_sampler_parks_when_world_quiesces_and_resumes(self):
        world = World(telemetry=True)
        host = world.host("solo")

        def napper():
            yield Sleep(0.03)

        host.spawn("nap", napper())
        world.run()                      # must terminate: sampler parks
        parked_ticks = world.telemetry.ticks
        assert parked_ticks > 0
        assert world.telemetry.armed
        host.spawn("nap2", napper())
        world.telemetry.resume()
        world.run()
        assert world.telemetry.ticks > parked_ticks

    def test_world_hook_attaches_later_hosts(self):
        world = World()
        early = world.host("early")
        world.enable_telemetry()
        late = world.host("late")
        for host in (early, late):
            assert host.kernel.telemetry is world.telemetry
            assert world.telemetry.series(host.name, "cpu_time") is not None

    def test_components_publish_gauges(self):
        """Every instrumented layer shows up as series: NIC, device,
        port, buffer pool."""
        world = World(telemetry=True)
        host = world.host("h")
        host.install_packet_filter()
        host.enable_overload(pool=BufferPool(8, port_share=4))

        def opener():
            yield Open("pf")
            yield Sleep(0.02)

        host.spawn("op", opener())
        world.run()
        names = {
            name for host, name in world.telemetry.export().series if host == "h"
        }
        assert {"nic.ring_depth", "nic.polling", "pf.delivered",
                "pool.in_use", "pool.available"} <= names
        assert any(n.startswith("pf.port") and n.endswith(".depth")
                   for n in names)

    def test_ir_gauges_read_the_compiled_set(self):
        """The ``pf.ir.*`` gauges docs/PERFORMANCE.md documents: 0 until
        the first attach compiles a set, then the demultiplexer's
        ``IRStats``."""
        world = World(telemetry=True)
        host = world.host("h")
        device = host.install_packet_filter(engine=Engine.IR)

        def binder():
            yield Sleep(0.02)
            for index in range(4):
                fd = yield Open("pf")
                program = compile_expr((word(6) == 0x0900) & (word(7) == index))
                yield Ioctl(fd, PFIoctl.SETFILTER, program)
            yield Sleep(0.02)
            yield SigWait()  # keep the ports bound once the world idles

        host.spawn("binder", binder())
        world.run()
        stats = device.demux.ir_stats
        assert stats.nodes_before_cse > 0 and stats.dispatch_depth > 0
        for field in ("nodes_before_cse", "nodes_after_cse", "dispatch_depth"):
            samples = world.telemetry.series("h", f"pf.ir.{field}").samples
            first_at, first = samples[0]
            assert first_at < 0.02 and first == 0.0
            assert samples[-1][1] == getattr(stats, field)

    def test_port_close_retracts_port_gauges(self):
        world = World(telemetry=True)
        host = world.host("h")
        host.install_packet_filter()

        def open_close():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Close(fd)
            yield Sleep(0.02)

        host.spawn("oc", open_close())
        world.run()
        port_gauges = [
            key for key in world.telemetry._gauges
            if key[1].startswith("pf.port")
        ]
        assert port_gauges == []


class TestWatchdogs:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            WatchdogRule("bad", lambda view: True, fire_after=0)

    def test_hysteresis_fire_and_clear(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        box = {"hot": 0.0}
        telemetry.register_gauges("h", "sig.", {"hot": lambda: box["hot"]})
        telemetry.add_rule(
            WatchdogRule(
                "synthetic",
                lambda view: (view.latest("sig.hot") or 0.0) > 0.0,
                fire_after=3,
                clear_after=2,
                capture=("sig.hot",),
            ),
            host="h",
        )
        scheduler.run(until=0.0125)         # two cold ticks
        box["hot"] = 1.0
        scheduler.run(until=0.0225)         # two hot ticks: not yet
        assert telemetry.alerts == []
        scheduler.run(until=0.0275)         # third consecutive hot tick
        [alert] = telemetry.alerts
        assert alert.rule == "synthetic"
        assert alert.active
        assert alert.fired_at == pytest.approx(0.025)
        assert alert.values == {"sig.hot": 1.0}
        box["hot"] = 0.0
        scheduler.run(until=0.0325)         # one cold tick: still active
        assert alert.active
        scheduler.run(until=0.0375)         # second: clears
        assert not alert.active
        assert alert.cleared_at == pytest.approx(0.035)

    def test_flapping_below_threshold_never_fires(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        calls = iter(range(10_000))

        def flapping_gauge():
            # the gauge runs exactly once per tick: hot two ticks,
            # cold two ticks — never three consecutive hot samples
            return 1.0 if next(calls) % 4 < 2 else 0.0

        telemetry.register_gauges("h", "sig.", {"hot": flapping_gauge})
        telemetry.add_rule(
            WatchdogRule(
                "flappy",
                lambda view: (view.latest("sig.hot") or 0.0) > 0.0,
                fire_after=3,
            ),
            host="h",
        )
        scheduler.run(until=0.5)
        assert telemetry.ticks > 20
        assert telemetry.alerts == []

    def test_builtin_pool_exhaustion_detector(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        telemetry.register_gauges(
            "h", "pool.",
            {"in_use": lambda: 8.0, "available": lambda: 0.0,
             "denied": lambda: 0.0},
        )
        scheduler.run(until=0.1)
        [alert] = telemetry.alerts_for("h", rule="buffer_pool_exhausted")
        assert alert.values["pool.available"] == 0.0

    def test_builtin_rto_backoff_detector(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        backoff = {"v": 1.0}
        telemetry.register_gauges(
            "h", "rto.bsp0x35.", {"backoff": lambda: backoff["v"]}
        )
        scheduler.run(until=0.05)
        assert telemetry.alerts_for(rule="rto_backoff_storm") == []
        backoff["v"] = 4.0                  # two consecutive doublings
        scheduler.run(until=0.1)
        [alert] = telemetry.alerts_for(rule="rto_backoff_storm")
        assert alert.host == "h"

    def test_builtin_poll_residency_detector(self):
        scheduler, telemetry, kernel = armed_telemetry(horizon=1.0)
        telemetry.register_gauges(
            "h", "nic.", {"polling": lambda: 1.0, "ring_depth": lambda: 64.0}
        )
        scheduler.run(until=0.2)
        [alert] = telemetry.alerts_for(rule="poll_mode_residency")
        assert alert.values["nic.ring_depth"] == 64.0

    def test_builtin_set_is_complete(self):
        names = {rule.name for rule in builtin_watchdogs()}
        assert names == {
            "receive_livelock",
            "buffer_pool_exhausted",
            "poll_mode_residency",
            "rto_backoff_storm",
        }


class TestEndToEnd:
    def test_chaos_run_publishes_rto_series(self):
        result = run_bsp_chaos(seed=11, telemetry=True)
        telemetry = result["world"].telemetry
        rto_series = [
            series for series in telemetry.export().series.values()
            if series.name.startswith("rto.bsp")
        ]
        assert any(series.name.endswith(".backoff") for series in rto_series)
        assert any(len(series) > 0 for series in rto_series)

    def test_seeded_runs_produce_identical_series(self):
        """Bitwise determinism: same seed, same samples, same alerts."""
        def capture():
            result = run_bsp_chaos(seed=5, telemetry=True)
            telemetry = result["world"].telemetry
            series = {
                key: s.samples for key, s in telemetry.export().series.items()
            }
            return series, telemetry.alerts

        assert capture() == capture()

    def test_armed_telemetry_does_not_perturb_the_run(self):
        """The observer effect must be zero: identical KernelStats with
        telemetry armed and disarmed."""
        plain = run_bsp_chaos(seed=7, ledger=True)
        observed = run_bsp_chaos(seed=7, ledger=True, telemetry=True)
        assert plain["world"].telemetry is None
        for bare, watched in zip(
            plain["world"].hosts, observed["world"].hosts
        ):
            assert bare.name == watched.name
            assert bare.kernel.stats == watched.kernel.stats

    def test_storm_results_carry_alerts_and_rates(self):
        result = run_overload_storm(
            mode="interrupt", offered_multiplier=3.0,
            warmup=0.05, duration=0.3, telemetry=True,
        )
        assert result["telemetry"] is result["world"].telemetry
        assert "syscalls" in result["receiver_rates"]
        assert isinstance(result["alerts"], list)
