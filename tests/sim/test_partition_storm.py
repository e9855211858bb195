"""The partition-storm scenario: watchdogs that tell faults apart.

The signature being pinned: during a bridge-link outage, the
cross-segment ``partition:*`` watchdog fires (bridged goodput collapses
while local traffic stays healthy) and the per-segment livelock
watchdogs stay silent — the opposite of an overload, where local
delivery is exactly what degrades.  After the link heals and the
client's backed-off retry lands, the partition alert clears.
"""

import pickle

import pytest

from repro.bench.scenarios import run_partition_storm
from repro.bench.topologies import HEAL_AT, PARTITION_AT


@pytest.fixture(scope="module")
def storm():
    return run_partition_storm(segments=2, shards=1, seed=0, duration=1.2)


class TestPartitionWatchdog:
    def test_fires_during_partition_window(self, storm):
        alerts = storm["partition_alerts"]
        assert alerts, "partition watchdog never fired"
        # Both endpoints of the downed link notice.
        assert {alert.host for alert in alerts} == {
            "segment:lan0",
            "segment:lan1",
        }
        for alert in alerts:
            assert PARTITION_AT <= alert.fired_at <= HEAL_AT + 0.05

    def test_clears_after_heal(self, storm):
        for alert in storm["partition_alerts"]:
            assert alert.cleared_at is not None
            assert alert.cleared_at > HEAL_AT

    def test_livelock_watchdogs_stay_silent(self, storm):
        # Local traffic is healthy throughout: a partition must not be
        # mistaken for receive livelock on either segment.
        assert storm["livelock_alerts"] == []


class TestBackoffStorm:
    def test_rto_backoff_storm_fires_and_clears(self, storm):
        (alert,) = storm["backoff_alerts"]
        assert alert.host == "lan0:client"
        assert alert.fired_at > PARTITION_AT
        assert alert.cleared_at is not None
        assert alert.cleared_at > HEAL_AT

    def test_client_retries_through_the_outage(self, storm):
        client = storm["vmtp"]["lan0"]
        assert client["retries"] >= 2       # exponential backoff engaged
        assert client["calls"] > 0
        assert client["intact"] == client["calls"]   # every reply intact


class TestLedgerReconciliation:
    def test_dropped_link_down_reconciles_exactly(self, storm):
        result = storm["result"]
        wire_total = sum(
            wire["frames_dropped_link_down"] for wire in result.wire.values()
        )
        assert wire_total == storm["dropped_link_down"]
        assert wire_total > 0, "no frame ever died on the downed link"
        summary = result.ledger.drop_summary()
        assert summary.get("dropped_link_down", 0) == wire_total

    def test_no_span_left_open(self, storm):
        assert storm["result"].ledger.open_spans() == []

    def test_ingress_counters_cover_forwarded_traffic(self, storm):
        for wire in storm["result"].wire.values():
            assert wire["frames_ingress"] >= 0
        total_forwarded = sum(
            wire["frames_forwarded"]
            for wire in storm["result"].wire.values()
        )
        total_ingress = sum(
            wire["frames_ingress"] for wire in storm["result"].wire.values()
        )
        assert total_ingress == total_forwarded


class TestShippedTelemetry:
    def test_segment_snapshot_survives_the_pipe_as_it_is(self, storm):
        """What a spawned worker ships is the recorded form itself:
        pickling a segment's snapshot changes nothing in it."""
        snapshot = storm["result"].segment_reports[0].telemetry
        assert snapshot.alerts and any(map(len, snapshot.series.values()))
        clone = pickle.loads(pickle.dumps(snapshot))
        assert list(clone.series) == list(snapshot.series)
        for key, series in snapshot.series.items():
            assert vars(clone.series[key]) == vars(series), key
        assert clone.alerts == snapshot.alerts
