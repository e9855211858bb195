"""The observability plane: percentiles, alerts on the window replies,
loss tolerance, the cost of watching, and the sync-protocol profiler."""

import sys

import pytest

from repro.bench.summary import WALL_QUANTILES, _pnn, render_summary, run_summary
from repro.bench.topologies import flow_storm_topology, partition_storm_topology
from repro.sim.obsplane import (
    TRACK_LIMIT,
    ObservabilityPlane,
    ShardSyncStats,
    SyncProfile,
)
from repro.sim.orchestrator import TopologyResult, run_topology
from repro.sim.shard import LocalShard, ShardDiedError
from repro.sim.stats import nearest_rank
from repro.sim.telemetry import Alert

from .test_shard import fail_in_workers

STORM = dict(segments=2, seed=0, duration=0.1, flows=64, cache_size=16)


def storm_spec(**overrides):
    return flow_storm_topology(**{**STORM, **overrides})


class TestPercentiles:
    """``wall.sync``'s percentiles are nearest-rank over the samples the
    profile keeps: the estimator ``Ledger.stage_percentiles`` uses."""

    def test_nearest_rank_is_exact(self):
        values = [1e-4 * (1.1 ** n) for n in range(200)]
        found = nearest_rank(reversed(values), (0.0, 0.5, 0.95, 0.99, 1.0))
        assert found == {
            0.0: values[0],
            0.5: values[99],
            0.95: values[189],
            0.99: values[197],
            1.0: values[-1],
        }

    def test_one_sample_is_every_percentile(self):
        assert nearest_rank([5.0], (0.5, 0.99)) == {0.5: 5.0, 0.99: 5.0}

    def test_empty_profile_reports_none(self):
        assert nearest_rank([], (0.5,)) == {}
        profile = SyncProfile(shards=[ShardSyncStats(shard_id=0)])
        assert _pnn(nearest_rank(profile.window_walls, WALL_QUANTILES)) == {}
        assert _pnn(nearest_rank(profile.shards[0].grant_waits, (0.5,))) == {}

    def test_read_off_the_first_track_limit_windows(self):
        profile = SyncProfile(shards=[ShardSyncStats(shard_id=0)])
        stats = profile.shards[0]
        for n in range(TRACK_LIMIT + 10):
            wall = 1.0 if n < TRACK_LIMIT else 1e6
            profile.note_window(float(n), wall)
            stats.note_reply(wall, (n, 0, [], None, []))
        assert profile.windows == TRACK_LIMIT + 10
        assert profile.window_walls == [1.0] * TRACK_LIMIT
        assert stats.grant_waits == [1.0] * TRACK_LIMIT
        for samples in (profile.window_walls, stats.grant_waits):
            assert _pnn(nearest_rank(samples, WALL_QUANTILES))["p99"] == 1.0
        assert stats.grant_wait_seconds == TRACK_LIMIT + 10 * 1e6


class TestObservabilityPlane:
    def plane(self, shards=2, **callbacks):
        """A plane watching a hand-built profile, as ``run_topology``
        leaves it."""
        plane = ObservabilityPlane(**callbacks)
        plane.sync = SyncProfile(
            shards=[ShardSyncStats(shard_id=n) for n in range(shards)]
        )
        return plane

    def reply(self, plane, shard=0, window=1, next_time=0.01, alerts=()):
        """One window's reply from ``shard``, folded in the way the
        orchestrator's receive loop does."""
        reply = (window, 10, [None, None], next_time, list(alerts))
        plane.view(shard).note_reply(0.0, reply)
        plane.ingest(reply[-1])

    def test_ingest_builds_views_and_fires_callbacks(self):
        seen = []
        plane = self.plane(
            on_update=lambda p: seen.append(
                [stats.events_fired for stats in p.sync.shards]
            )
        )
        self.reply(plane, shard=0, window=3, next_time=0.03)
        self.reply(plane, shard=1, window=3, next_time=0.05)
        assert seen == [[10, 0], [10, 10]]
        assert plane.view(0).egress_backlog == 2
        assert plane.earliest_time() == 0.03
        assert plane.time_skew() == pytest.approx(0.02)
        assert plane.view(1).next_time == 0.05

    def test_each_reply_alert_is_announced_once(self):
        # A reply carries only the alerts fired in its window, so the
        # plane announces each as it arrives and keeps them in order.
        first = Alert(rule="partition", host="segment:lan0", fired_at=0.2)
        second = Alert(rule="partition", host="segment:lan1", fired_at=0.3)
        announced = []
        plane = self.plane(on_alert=announced.append)
        self.reply(plane, window=1, alerts=[first])
        self.reply(plane, window=2)
        self.reply(plane, window=3, alerts=[second])
        assert plane.alerts == announced == [first, second]
        assert plane.active_alerts() == [first, second]

    def test_render_is_plain_text(self):
        plane = self.plane()
        self.reply(plane, shard=0, next_time=0.02)
        self.reply(plane, shard=1, next_time=0.01)
        frame = plane.render()
        assert "cluster: 2 shard(s)" in frame
        assert "alerts: none" in frame
        assert "\x1b" not in frame   # no ANSI: callers own the repaint
        # the shard everyone waits on is the one with the earliest
        # pending event, not the one furthest ahead
        rows = {int(line.split()[0]): line for line in frame.splitlines()[2:4]}
        assert rows[1].endswith("<- slowest")
        assert "slowest" not in rows[0]


class TestLiveStreaming:
    def test_single_shard_feeds_plane_synchronously(self):
        updates = []
        plane = ObservabilityPlane(on_update=updates.append)
        result = run_topology(storm_spec(), shards=1, observability=plane)
        assert len(updates) == result.windows
        assert plane.view(0).events_fired == result.events_fired

    def test_worker_shards_send_a_delta_with_every_reply(self):
        updates = []
        plane = ObservabilityPlane(on_update=updates.append)
        result = run_topology(storm_spec(), shards=2, observability=plane)
        assert plane.sync is result.sync and len(plane.sync.shards) == 2
        # one update per shard per window, none lost on a clean run
        assert len(updates) == 2 * result.windows
        assert (
            plane.view(0).events_fired + plane.view(1).events_fired
            == result.events_fired
        )

    @pytest.fixture(scope="class")
    def watched_storms(self):
        """The partition storm at one and two shards, each watched by a
        plane: ``{shards: (plane, result, announced)}``, ``announced``
        being what each alert looked like the moment it was announced."""
        runs = {}
        for shards in (1, 2):
            announced = []
            plane = ObservabilityPlane(
                on_alert=lambda alert, seen=announced: seen.append(
                    vars(alert).copy()
                )
            )
            result = run_topology(
                partition_storm_topology(segments=2, seed=0),
                shards=shards,
                observability=plane,
            )
            runs[shards] = plane, result, announced
        return runs

    def test_one_and_two_shards_feed_the_plane_the_same_facts(
        self, watched_storms
    ):
        # One window body feeds both the same alerts, field for field,
        # each a copy taken in the window it fired in: still active when
        # announced and for ever after, whatever the sampler's own
        # record went on to say.
        assert watched_storms[1][2] == watched_storms[2][2]
        for plane, result, announced in watched_storms.values():
            assert [vars(alert) for alert in plane.alerts] == announced
            assert all(alert.cleared_at is None for alert in plane.alerts)
            assert all(
                alert.cleared_at is not None for alert in result.telemetry.alerts
            )

    def test_partition_storm_alerts_stream_live(self, watched_storms):
        _, result, announced = watched_storms[2]
        rules = {alert["rule"] for alert in announced}
        assert any(rule.startswith("partition:") for rule in rules)
        # the live stream saw exactly the merged post-run alert log
        assert len(announced) == len(result.telemetry.alerts)


def watch_calls_per_window(duration: float) -> list[int]:
    """Calls, per window, of the code that carries a window's news to an
    armed plane on a ledger-on flow storm: ``LocalShard.run_window``
    less the stepping it wraps, plus ``ObservabilityPlane.ingest``.
    Counted with a profile hook (Python and C calls alike), so the
    number repeats exactly on any host."""
    body = LocalShard.run_window.__code__
    step = LocalShard.step.__code__
    ingest = ObservabilityPlane.ingest.__code__
    per_window: list[int] = []
    counting = False
    calls = 0

    def hook(frame, event, arg):
        nonlocal counting, calls
        code = frame.f_code
        if event == "call":
            if code is body or code is ingest:
                counting = True
            elif code is step:
                counting = False
        elif event == "return":
            if code is step:
                counting = True
            elif code is body or code is ingest:
                counting = False
            if code is ingest:
                per_window.append(calls)
                calls = 0
        if counting and event in ("call", "c_call"):
            calls += 1

    spec = storm_spec(duration=duration)
    assert spec.ledger
    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run_topology(spec, shards=1, observability=ObservabilityPlane())
    finally:
        sys.setprofile(outer)
    assert len(per_window) == result.windows
    return per_window


class TestWatchingCost:
    def test_calls_per_window_do_not_grow_with_the_run(self):
        """Watching costs the same every window, however long the run
        has gone on: nothing walks what earlier windows recorded."""
        short, long = (watch_calls_per_window(d) for d in (0.2, 0.8))
        assert len(long) > 3 * len(short) // 2
        assert set(short) == set(long)
        assert len(set(long)) == 1


class TestDeltaLoss:
    def test_killed_shard_does_not_wedge_the_plane(self, monkeypatch):
        """A shard dying mid-run (its reply, and the alerts on it, never
        sent) fails the run with a typed error and leaves the plane
        readable at each shard's last good record."""
        fail_in_workers(monkeypatch, 3, "die")
        updates = []
        plane = ObservabilityPlane(on_update=updates.append)
        with pytest.raises(ShardDiedError) as excinfo:
            run_topology(storm_spec(), shards=2, observability=plane)
        assert (excinfo.value.shard_id, excinfo.value.last_ack) == (0, 2)
        assert plane.sync.windows == 2
        assert len(updates) == 4   # two windows from each shard
        assert "cluster: 2 shard(s), 2 windows" in plane.render()


class TestSyncProfile:
    def test_profile_populated_per_shard(self):
        result = run_topology(storm_spec(segments=4), shards=2)
        sync = result.sync
        assert result.windows == sync.windows > 0
        assert sync.wall_per_window > 0.0
        assert len(sync.shards) == 2
        for stats in sync.shards:
            assert stats.null_grants > 0      # idle windows exist
            assert stats.grant_wait_seconds > 0.0
            # every shard is granted every window
            assert len(stats.grant_waits) == sync.windows
            assert stats.egress_frames > 0    # bridges crossed
        summary = run_summary("flow_storm", result, profile=True)
        assert summary["wall"]["sync"]["shards"][0]["grant_wait"]["p95"] > 0.0
        assert "wait p95" in render_summary(summary)

    def test_horizons_are_deterministic(self):
        first = run_topology(storm_spec(), shards=2).sync
        second = run_topology(storm_spec(), shards=2).sync
        assert first.horizons == second.horizons
        assert [s.egress_per_window for s in first.shards] == [
            s.egress_per_window for s in second.shards
        ]
        assert [s.null_grants for s in first.shards] == [
            s.null_grants for s in second.shards
        ]

    def test_shard_details_surface_per_shard_progress(self):
        result = run_topology(storm_spec(), shards=2)
        details = run_summary("flow_storm", result)["shard_details"]
        assert [d["shard"] for d in details] == [0, 1]
        assert sum(d["events_fired"] for d in details) == result.events_fired
        assert [d["segments"] for d in details] == [["lan0"], ["lan1"]]
        for detail, stats in zip(details, result.sync.shards):
            assert detail["null_grants"] == stats.null_grants
            assert detail["egress_frames"] == stats.egress_frames
        # one wall-per-window answer, on the sync profile
        assert not hasattr(result, "wall_per_window")
        assert result.sync.wall_per_window > 0.0

    def test_window_and_shard_facts_are_stored_once(self):
        """``SyncProfile.windows`` is the one stored window count and
        ``ShardSyncStats`` the one per-shard record: the result reads
        through to them instead of keeping copies."""
        assert "windows" in SyncProfile.__dataclass_fields__
        assert not {"windows", "shard_details"} & set(
            TopologyResult.__dataclass_fields__
        )
        assert not {"grants", "window"} & set(ShardSyncStats.__dataclass_fields__)
        assert not hasattr(ObservabilityPlane(), "deltas")
        assert not hasattr(SyncProfile, "render")
        result = run_topology(storm_spec(), shards=2)
        assert result.windows == result.sync.windows
