"""Declarative link-fault schedules and their wire-level effect.

Faults are static data on the :class:`~repro.sim.topology.TopologySpec`
— seeded, picklable, and evaluated identically by whichever shard owns
an endpoint — so chaos runs stay inside the partition-independence
oracle: a frame dropped by a downed link is dropped in the same window
with the same ledger fate no matter how the topology is sharded.
"""

import dataclasses

import pytest

from repro.difftest.sharding import run_digest
from repro.sim.faults import (
    DIRECTION_A_TO_B,
    DIRECTION_B_TO_A,
    LinkFault,
    flap_schedule,
    interval_covers,
    intervals_for,
    link_partition,
    parse_fault_spec,
    schedule_fingerprint,
)
from repro.sim.ledger import DROP_PRIMITIVES, Primitive
from repro.sim.orchestrator import run_topology

from .test_shard import ping_spec


class TestLinkFault:
    def test_validates_interval(self):
        with pytest.raises(ValueError, match="start"):
            LinkFault("l", 0.5, 0.2)
        with pytest.raises(ValueError, match="start"):
            LinkFault("l", -0.1, 0.2)
        with pytest.raises(ValueError, match="link id"):
            LinkFault("", 0.1, 0.2)
        with pytest.raises(ValueError, match="direction"):
            LinkFault("l", 0.1, 0.2, direction="sideways")

    def test_link_partition_is_one_bidirectional_fault(self):
        (fault,) = link_partition("lan0~lan1", 0.2, 0.55)
        assert fault.link_id == "lan0~lan1"
        assert (fault.start, fault.end) == (0.2, 0.55)
        assert fault.direction == "both"

    def test_intervals_for_filters_by_link_and_direction(self):
        faults = (
            LinkFault("a~b", 0.1, 0.2),
            LinkFault("a~b", 0.4, 0.5, direction=DIRECTION_A_TO_B),
            LinkFault("b~c", 0.0, 1.0),
        )
        assert intervals_for(faults, "a~b", DIRECTION_A_TO_B) == (
            (0.1, 0.2),
            (0.4, 0.5),
        )
        # The b->a crossing only sees the bidirectional outage.
        assert intervals_for(faults, "a~b", DIRECTION_B_TO_A) == ((0.1, 0.2),)
        assert intervals_for(faults, "nope", DIRECTION_A_TO_B) == ()

    def test_interval_covers_half_open(self):
        intervals = ((0.1, 0.2), (0.4, 0.5))
        assert not interval_covers(intervals, 0.05)
        assert interval_covers(intervals, 0.1)       # closed start
        assert interval_covers(intervals, 0.199)
        assert not interval_covers(intervals, 0.2)   # open end
        assert interval_covers(intervals, 0.45)
        assert not interval_covers(intervals, 0.6)
        assert not interval_covers((), 0.1)


class TestFlapSchedule:
    def test_deterministic_per_seed_and_link(self):
        kwargs = dict(start=0.0, until=1.0, mean_down=0.05, mean_up=0.1)
        first = flap_schedule(7, "a~b", **kwargs)
        again = flap_schedule(7, "a~b", **kwargs)
        assert first == again
        assert flap_schedule(8, "a~b", **kwargs) != first
        assert flap_schedule(7, "b~c", **kwargs) != first

    def test_flaps_ordered_and_bounded(self):
        faults = flap_schedule(
            3, "a~b", start=0.2, until=1.0, mean_down=0.05, mean_up=0.1
        )
        assert faults, "expected at least one flap in 0.8s at these means"
        intervals = intervals_for(faults, "a~b", DIRECTION_A_TO_B)
        assert all(0.2 <= s < e <= 1.0 for s, e in intervals)
        # non-overlapping, strictly increasing
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 < s1

    def test_fingerprint_round_trips_exact_floats(self):
        faults = flap_schedule(
            3, "a~b", start=0.0, until=0.5, mean_down=0.02, mean_up=0.05
        )
        assert schedule_fingerprint(faults) == schedule_fingerprint(faults)
        assert "a~b" in schedule_fingerprint(faults)


class TestParseFaultSpec:
    def test_down_clause(self):
        (fault,) = parse_fault_spec("down:lan0~lan1:0.2:0.55")
        assert fault == LinkFault("lan0~lan1", 0.2, 0.55)

    def test_direction_aliases(self):
        (fault,) = parse_fault_spec("down:l:0:1:a2b")
        assert fault.direction == DIRECTION_A_TO_B
        (fault,) = parse_fault_spec("down:l:0:1:b2a")
        assert fault.direction == DIRECTION_B_TO_A

    def test_flap_clause_uses_seed(self):
        first = parse_fault_spec("flap:l:0:1:0.05:0.1", seed=1)
        again = parse_fault_spec("flap:l:0:1:0.05:0.1", seed=1)
        other = parse_fault_spec("flap:l:0:1:0.05:0.1", seed=2)
        assert first == again
        assert first != other

    def test_multiple_clauses(self):
        faults = parse_fault_spec("down:a~b:0:1,down:b~c:2:3:a2b")
        assert len(faults) == 2
        assert faults[1].link_id == "b~c"

    def test_rejects_garbage(self):
        for bad in ("", "down:l:1", "explode:l:0:1", "down:l:0:1:upward"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "flap:l:0:inf:0.05:0.1",   # a schedule that never ends
            "flap:l:0:1:inf:0.1",      # expovariate(1 / inf) divides by zero
            "flap:l:0:1:0.05:nan",
            "flap:l:nan:1:0.05:0.1",
            "down:l:0:inf",            # an end that is not JSON
            "down:l:0:1e400",
            "down:l:nan:1",
        ],
    )
    def test_rejects_times_that_are_not_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            parse_fault_spec(bad)


class TestTopologyFaults:
    def test_unknown_link_rejected_by_validate(self):
        spec = dataclasses.replace(
            ping_spec(2), faults=link_partition("no~such", 0.1, 0.2)
        )
        with pytest.raises(ValueError, match="no~such"):
            spec.validate()

    def test_drop_link_down_is_a_drop_primitive(self):
        assert Primitive.DROP_LINK_DOWN in DROP_PRIMITIVES
        assert Primitive.DROP_LINK_DOWN.value == "dropped_link_down"

    def test_downed_link_drops_and_reconciles(self):
        # Fault covers the whole run: every bridged frame dies on the
        # link, under a ledgered wire fate — and the books still close.
        spec = dataclasses.replace(
            ping_spec(2, frames=6),
            faults=link_partition("lan0~lan1", 0.0, 10.0),
            ledger=True,
        )
        result = run_topology(spec, shards=1)
        dropped = sum(
            wire["frames_dropped_link_down"] for wire in result.wire.values()
        )
        forwarded = sum(
            wire["frames_forwarded"] for wire in result.wire.values()
        )
        assert dropped == 12   # 6 cross frames per direction
        assert forwarded == 0
        assert result.ledger.open_spans() == []
        assert result.ledger.drop_summary()["dropped_link_down"] == 12
        # Each drop is labelled with the cable it was captured on.
        per_label: dict = {}
        for event in result.ledger.events:
            if event.primitive is Primitive.DROP_LINK_DOWN:
                per_label[event.host] = per_label.get(event.host, 0) + 1
        assert per_label == {"wire:lan0": 6, "wire:lan1": 6}

    def test_partial_outage_drops_only_inside_window(self):
        spec = dataclasses.replace(
            ping_spec(2, frames=6),
            faults=link_partition("lan0~lan1", 0.0, 0.009),
        )
        result = run_topology(spec, shards=1)
        dropped = sum(
            wire["frames_dropped_link_down"] for wire in result.wire.values()
        )
        forwarded = sum(
            wire["frames_forwarded"] for wire in result.wire.values()
        )
        assert dropped > 0
        assert forwarded > 0
        assert dropped + forwarded == 12

    def test_directional_fault_only_kills_one_crossing(self):
        spec = dataclasses.replace(
            ping_spec(2, frames=6),
            faults=(
                LinkFault(
                    "lan0~lan1", 0.0, 10.0, direction=DIRECTION_A_TO_B
                ),
            ),
        )
        result = run_topology(spec, shards=1)
        assert result.wire["lan0"]["frames_dropped_link_down"] == 6
        assert result.wire["lan0"]["frames_forwarded"] == 0
        assert result.wire["lan1"]["frames_dropped_link_down"] == 0
        assert result.wire["lan1"]["frames_forwarded"] == 6

    def test_faulted_run_is_shard_count_independent(self):
        spec = dataclasses.replace(
            ping_spec(3, frames=5, seed=11),
            faults=link_partition("lan0~lan1", 0.004, 0.012),
        )
        baseline = run_digest(run_topology(spec, shards=1))
        assert run_digest(run_topology(spec, shards=3)) == baseline
