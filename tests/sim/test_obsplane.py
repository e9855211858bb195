"""The observability plane: histograms, progress deltas on the window
replies, loss tolerance, and the sync-protocol profiler."""

import math

import pytest

from repro.bench.topologies import flow_storm_topology, partition_storm_topology
from repro.difftest.sharding import run_digest
from repro.sim.obsplane import (
    ObservabilityPlane,
    ShardSyncStats,
    SyncProfile,
    span_latency_histogram,
)
from repro.sim.orchestrator import RecoveryConfig, run_topology
from repro.sim.telemetry import Alert, LogHistogram

STORM = dict(segments=2, seed=0, duration=0.1, flows=64, cache_size=16)


def storm_spec(**overrides):
    return flow_storm_topology(**{**STORM, **overrides})


class TestLogHistogram:
    def test_counts_min_max_mean(self):
        hist = LogHistogram()
        for value in (1e-3, 2e-3, 4e-3):
            hist.add(value)
        assert len(hist) == 3
        assert hist.min == 1e-3
        assert hist.max == 4e-3
        assert hist.mean == pytest.approx((1e-3 + 2e-3 + 4e-3) / 3)

    def test_buckets_are_octaves(self):
        hist = LogHistogram(floor=1.0, buckets=8)
        hist.add(1.5)    # [1, 2)
        hist.add(3.0)    # [2, 4)
        hist.add(3.9)
        lo, hi = hist.bounds(1)
        assert (lo, hi) == (2.0, 4.0)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 2

    def test_below_floor_clamps_to_first_bucket(self):
        hist = LogHistogram(floor=1e-3)
        hist.add(1e-9)
        assert hist.counts[0] == 1
        assert hist.min == 1e-9

    def test_above_range_clamps_to_last_bucket(self):
        hist = LogHistogram(floor=1.0, buckets=4)
        hist.add(1e12)
        assert hist.counts[-1] == 1

    def test_quantiles_without_raw_samples(self):
        hist = LogHistogram(floor=1e-6)
        values = [1e-4 * (1.1 ** n) for n in range(200)]
        for value in values:
            hist.add(value)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = values[math.ceil(q * len(values)) - 1]
            estimate = hist.quantile(q)
            # octave buckets bound the relative error by 2x each way
            assert exact / 2 <= estimate <= exact * 2

    def test_quantile_clamped_to_observed_range(self):
        hist = LogHistogram(floor=1.0)
        hist.add(5.0)
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(0.99) == 5.0

    def test_empty_quantile_is_none(self):
        assert LogHistogram().quantile(0.5) is None
        assert LogHistogram().percentiles() == {
            "p50": None, "p95": None, "p99": None
        }

    def test_merge_equals_union(self):
        left, right, union = LogHistogram(), LogHistogram(), LogHistogram()
        for index, value in enumerate(v * 1e-4 for v in range(1, 40)):
            (left if index % 2 else right).add(value)
            union.add(value)
        left.merge(right)
        assert left.counts == union.counts
        assert left.count == union.count
        assert left.min == union.min
        assert left.max == union.max
        assert left.percentiles() == union.percentiles()

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LogHistogram(buckets=8).merge(LogHistogram(buckets=16))
        with pytest.raises(ValueError):
            LogHistogram(floor=1e-3).merge(LogHistogram(floor=1e-6))


class TestSpanLatencyHistogram:
    def test_per_segment_merge_equals_merged_ledger(self):
        """Folding per-segment histograms must equal histogramming the
        merged ledger — the bounded-memory percentile claim."""
        result = run_topology(storm_spec(), shards=1)
        merged = span_latency_histogram(result.ledger)
        folded = LogHistogram()
        for report in result.segment_reports:
            folded.merge(span_latency_histogram(report.ledger))
        assert merged.count > 0
        assert folded.counts == merged.counts
        assert folded.count == merged.count

    def test_sharded_histogram_matches_single(self):
        one, two = (
            span_latency_histogram(run_topology(storm_spec(), shards=n).ledger)
            for n in (1, 2)
        )
        assert one.counts == two.counts
        assert one.percentiles() == two.percentiles()


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
        delta = {
            "clocks": {"lan0": {"now": 0.01, "events": 10}},
            "alerts": list(alerts),
            "span_hist": LogHistogram(),
        }
        plane.view(shard).note_reply(
            0.0, (window, 10, [None, None], next_time, delta)
        )
        plane.ingest(delta)

    def test_ingest_builds_views_and_fires_callbacks(self):
        seen = []
        plane = self.plane(on_update=lambda p: seen.append(p.deltas))
        self.reply(plane, shard=0, window=3, next_time=0.03)
        self.reply(plane, shard=1, window=3, next_time=0.05)
        assert seen == [1, 2]
        assert plane.view(0).window == 3
        assert plane.view(0).egress_backlog == 2
        assert plane.earliest_time() == 0.03
        assert plane.time_skew() == pytest.approx(0.02)
        assert plane.window_skew() == 0

    def test_alerts_dedupe_and_announce_once(self):
        alert = Alert(rule="partition", host="segment:lan0", fired_at=0.2)
        announced = []
        plane = self.plane(on_alert=announced.append)
        self.reply(plane, window=1, alerts=[alert])
        self.reply(plane, window=2, alerts=[Alert(**vars(alert))])  # replayed
        assert len(plane.alerts) == 1
        assert announced == [alert]
        assert plane.active_alerts() == [alert]

    def test_loss_and_restart_marks(self):
        plane = self.plane()
        self.reply(plane, window=9)
        plane.view(0).lost = True            # the supervisor saw it die
        assert "LOST" in plane.render()
        plane.view(0).note_restart(0.1)      # ... and revived it
        assert not plane.view(0).lost
        assert plane.view(0).restarts == 1

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
        plane = ObservabilityPlane()
        result = run_topology(storm_spec(), shards=1, observability=plane)
        assert plane.deltas == result.windows
        assert plane.view(0).events_fired == result.events_fired

    def test_worker_shards_send_a_delta_with_every_reply(self):
        plane = ObservabilityPlane()
        result = run_topology(storm_spec(), shards=2, observability=plane)
        assert plane.sync is result.sync and len(plane.sync.shards) == 2
        # one delta per shard per window, none lost on a clean run
        assert plane.deltas == 2 * result.windows
        assert (
            plane.view(0).events_fired + plane.view(1).events_fired
            == result.events_fired
        )
        merged = plane.merged_span_hist()
        assert merged.count > 0
        assert merged.counts == span_latency_histogram(result.ledger).counts

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
        # One delta builder, run by the one window body, feeds both.
        planes = {n: plane for n, (plane, _, _) in watched_storms.items()}

        def segment_events(plane):
            return {
                name: clock["events"]
                for view in plane.sync.shards
                for name, clock in view.clocks.items()
            }

        assert segment_events(planes[1]) == segment_events(planes[2])
        assert sorted(segment_events(planes[1])) == ["lan0", "lan1"]
        one, two = (planes[n].merged_span_hist() for n in (1, 2))
        assert one.counts == two.counts
        assert one.percentiles() == two.percentiles()
        # ... and the same alerts, field for field, each a copy taken in
        # the window it fired in: still active when announced and for
        # ever after, whatever the sampler's own record went on to say.
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


class TestDeltaLoss:
    def test_killed_shard_does_not_wedge_the_plane(self):
        """A shard dying mid-run (its reply, and the delta on it, never
        sent) must leave the plane live, and recovery must keep the
        digest bitwise clean."""
        clean = run_digest(run_topology(storm_spec(), shards=2))
        plane = ObservabilityPlane()
        result = run_topology(
            storm_spec(),
            shards=2,
            recovery=RecoveryConfig(),
            hazards={0: {"die_at_window": 3}},
            observability=plane,
        )
        assert run_digest(result) == clean
        assert result.recovered_shards == [0]
        # the plane survived the stream loss: both shards progressed to
        # the final window and the revived one is flagged
        assert plane.view(0) is result.sync.shards[0]
        assert plane.view(0).restarts == 1
        assert not plane.view(0).lost
        assert plane.view(0).window == result.windows
        assert plane.view(1).window == result.windows
        assert result.sync.shards[0].restarts == 1
        assert result.sync.shards[0].replay_seconds > 0.0


class TestSyncProfile:
    def test_profile_populated_per_shard(self):
        result = run_topology(storm_spec(segments=4), shards=2)
        sync = result.sync
        assert sync.windows == result.windows
        assert sync.wall_per_window > 0.0
        assert len(sync.shards) == 2
        for stats in sync.shards:
            assert stats.grants == result.windows
            assert stats.null_grants > 0      # idle windows exist
            assert stats.grant_wait_seconds > 0.0
            assert stats.grant_wait_hist.count == stats.grants
            assert stats.egress_frames > 0    # bridges crossed
        report = sync.as_dict()
        assert report["windows"] == result.windows
        assert report["shards"][0]["grant_wait"]["p95"] is not None
        assert "wait" in sync.render()

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
        assert [d["shard"] for d in result.shard_details] == [0, 1]
        assert sum(d["events_fired"] for d in result.shard_details) == (
            result.events_fired
        )
        for detail in result.shard_details:
            assert detail["windows"] == result.windows
            assert detail["restarts"] == 0
        assert result.recovered_shards == []
        # one wall-per-window answer, on the sync profile
        assert not hasattr(result, "wall_per_window")
        assert result.sync.wall_per_window > 0.0
