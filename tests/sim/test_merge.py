"""Merge semantics for stats, ledgers and telemetry snapshots.

The sharded orchestrator reassembles a whole-world view from per-shard
pieces; these tests pin the contract each ``merge`` obeys: empty inputs
work, disjoint hosts combine, a shared host raises (double accounting),
and the reassembled whole reconciles exactly with its parts.
"""

import pytest

from repro.sim.ledger import STAGE_WIRE_ARRIVAL, Ledger, Primitive
from repro.sim.stats import KernelStats, merge_stats
from repro.sim.telemetry import Alert, Series, TelemetrySnapshot


class TestMergeStats:
    def test_empty_input(self):
        assert merge_stats([]) == {}
        assert merge_stats([{}, {}]) == {}

    def test_disjoint_hosts_combine(self):
        a = {"alice": KernelStats(syscalls=3, cpu_time=0.5)}
        b = {"bob": KernelStats(syscalls=7)}
        merged = merge_stats([a, b])
        assert sorted(merged) == ["alice", "bob"]
        assert merged["alice"].syscalls == 3
        assert merged["bob"].syscalls == 7

    def test_same_host_rejected(self):
        a = {"alice": KernelStats()}
        b = {"alice": KernelStats()}
        with pytest.raises(ValueError, match="alice"):
            merge_stats([a, b])

    def test_values_are_copies(self):
        original = KernelStats(syscalls=1)
        merged = merge_stats([{"alice": original}])
        merged["alice"].syscalls = 99
        assert original.syscalls == 1

    def test_kernel_stats_merge_sums_fieldwise(self):
        a = KernelStats(cpu_time=0.25, syscalls=2, bytes_copied=100)
        b = KernelStats(cpu_time=0.5, syscalls=3, bytes_copied=28)
        c = KernelStats(interrupts=4)
        total = a.merge(b, c)
        assert total.cpu_time == 0.75
        assert total.syscalls == 5
        assert total.bytes_copied == 128
        assert total.interrupts == 4
        # operands untouched
        assert a.syscalls == 2 and b.syscalls == 3

    def test_kernel_stats_merge_order_fixes_float_sum(self):
        # Merging in a fixed order must reproduce the float sum bitwise;
        # same operands, same order, same bits.
        parts = [KernelStats(cpu_time=0.1 * (i + 1)) for i in range(5)]
        first = parts[0].merge(*parts[1:])
        second = parts[0].merge(*parts[1:])
        assert first.cpu_time == second.cpu_time


def _ledger_with(host: str, packets: int = 2) -> Ledger:
    ledger = Ledger()
    for index in range(packets):
        packet_id = ledger.begin_packet(
            host, at=0.1 * index, flow="f", stage=STAGE_WIRE_ARRIVAL
        )
        ledger.record(
            Primitive.FRAME_RX,
            host=host,
            at=0.1 * index,
            cost=1e-5,
            packet_id=packet_id,
        )
        ledger.close_packet(packet_id, "delivered", at=0.1 * index + 0.01)
    return ledger


class TestMergeLedgers:
    def test_merge_empty(self):
        merged = Ledger().merge(Ledger())
        assert merged.events == []
        assert merged.spans == {}
        # and the merged ledger keeps allocating from 1
        assert merged.begin_packet("alice", at=0.0, stage=None) == 1

    def test_disjoint_hosts_combine_with_id_offset(self):
        a = _ledger_with("alice", packets=2)
        b = _ledger_with("bob", packets=3)
        merged = a.merge(b)
        assert merged is a
        assert sorted(merged.hosts()) == ["alice", "bob"]
        # bob's ids 1..3 were remapped past alice's high-water mark 2
        assert sorted(merged.spans) == [1, 2, 3, 4, 5]
        assert {merged.spans[i].host for i in (1, 2)} == {"alice"}
        assert {merged.spans[i].host for i in (3, 4, 5)} == {"bob"}
        # events were remapped consistently with their spans
        for event in merged.events:
            assert merged.spans[event.packet_id].host == event.host

    def test_same_host_rejected(self):
        with pytest.raises(ValueError, match="alice"):
            _ledger_with("alice").merge(_ledger_with("alice"))

    def test_id_allocation_continues_past_merge(self):
        a = _ledger_with("alice", packets=2)
        a.merge(_ledger_with("bob", packets=3))
        assert a.begin_packet("carol", at=9.0, stage=None) == 6

    def test_wire_labels_count_as_hosts(self):
        a = Ledger()
        a.record(Primitive.WIRE_LOSS, host="wire:lan0", at=0.0)
        b = Ledger()
        b.record(Primitive.WIRE_LOSS, host="wire:lan0", at=0.0)
        with pytest.raises(ValueError, match="wire:lan0"):
            a.merge(b)

    def test_merged_stats_view_reconciles_exactly(self):
        """The reassembled ledger replays into the same per-host stats
        as each part did alone — merge adds no events and loses none."""
        a = _ledger_with("alice", packets=4)
        b = _ledger_with("bob", packets=2)
        alone_alice = a.stats_view("alice")
        alone_bob = b.stats_view("bob")
        merged = a.merge(b)
        assert merged.stats_view("alice") == alone_alice
        assert merged.stats_view("bob") == alone_bob
        assert merged.total_cost() == pytest.approx(
            alone_alice.cpu_time + alone_bob.cpu_time
        )

    def test_remap_collision_rejected(self):
        """A ledger holding a span id above its own allocation
        high-water mark (corrupt or hand-built) must fail loudly when
        the remap offset lands an incoming id on it — not silently
        overwrite the span."""
        from repro.sim.ledger import PacketSpan

        a = _ledger_with("alice", packets=2)   # next offset will be 2
        a.spans[10] = PacketSpan(10, "alice", "f")
        b = _ledger_with("bob", packets=8)     # ids 1..8 remap to 3..10
        with pytest.raises(ValueError, match="collision"):
            a.merge(b)

    def test_remap_without_collision_still_works(self):
        from repro.sim.ledger import PacketSpan

        a = _ledger_with("alice", packets=2)
        a.spans[99] = PacketSpan(99, "alice", "f")   # far out of reach
        b = _ledger_with("bob", packets=3)
        a.merge(b)
        assert sorted(a.spans) == [1, 2, 3, 4, 5, 99]

    def test_wire_label_overlap_rejected(self):
        """Two shards may never report the same segment's cable."""
        a = Ledger()
        a.record(Primitive.WIRE_LOSS, host="wire:lan0", at=0.1)
        b = Ledger()
        b.record(Primitive.WIRE_LOSS, host="wire:lan0", at=0.2)
        with pytest.raises(ValueError, match="wire:lan0"):
            a.merge(b)


class TestMergeTelemetry:
    def _snapshot(self, host: str) -> TelemetrySnapshot:
        series = Series(host, "cpu_time")
        series.append(0.1, 0.5)
        series.append(0.2, 0.6)
        return TelemetrySnapshot(
            series={(host, "cpu_time"): series},
            alerts=[Alert(rule="r", host=host, fired_at=0.15)],
        )

    def test_disjoint_hosts_combine(self):
        merged = self._snapshot("alice").merge(self._snapshot("bob"))
        assert merged.hosts() == {"alice", "bob"}
        assert merged.series[("bob", "cpu_time")].latest() == 0.6
        assert merged.series[("alice", "cpu_time")].samples == [
            (0.1, 0.5),
            (0.2, 0.6),
        ]

    def test_same_host_rejected(self):
        with pytest.raises(ValueError, match="alice"):
            self._snapshot("alice").merge(self._snapshot("alice"))

    def test_alerts_resorted_into_one_timeline(self):
        a = TelemetrySnapshot(
            alerts=[Alert(rule="r", host="alice", fired_at=0.9)]
        )
        b = TelemetrySnapshot(
            alerts=[Alert(rule="r", host="bob", fired_at=0.1)]
        )
        merged = a.merge(b)
        assert [alert.fired_at for alert in merged.alerts] == [0.1, 0.9]

    def test_merge_empty(self):
        merged = TelemetrySnapshot().merge(TelemetrySnapshot())
        assert merged.series == {} and merged.alerts == []
