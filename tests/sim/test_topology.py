"""Tests for multi-segment topology specs, addressing and bridging."""

import pytest

from repro.sim.seeds import derive_seed
from repro.sim.topology import (
    BRIDGE_STATION_BASE,
    BridgeSpec,
    SegmentRuntime,
    SegmentSpec,
    TopologySpec,
    resolve_builder,
    segment_index_of,
    station_address,
)


def _noop_builder(ctx):
    pass


def _chain_spec(names, builder=_noop_builder, delay=1e-3, **spec_kwargs):
    return TopologySpec(
        segments=tuple(SegmentSpec(name, builder) for name in names),
        bridges=tuple(
            BridgeSpec(names[i], names[i + 1], delay=delay)
            for i in range(len(names) - 1)
        ),
        **spec_kwargs,
    )


class TestAddressing:
    def test_round_trip(self):
        for index in (0, 1, 7):
            for station in (1, 2, 0xEFFF):
                address = station_address(index, station)
                assert segment_index_of(address) == index

    def test_broadcast_has_no_segment(self):
        assert segment_index_of(b"\xff" * 6) is None

    def test_legacy_unprefixed_has_no_segment(self):
        # Single-segment worlds hand out low-byte addresses; the zero
        # prefix marks them as pre-topology.
        assert segment_index_of((0x0002).to_bytes(6, "big")) is None

    def test_distinct_segments_distinct_addresses(self):
        assert station_address(0, 1) != station_address(1, 1)

    def test_station_must_fit_16_bits(self):
        with pytest.raises(ValueError):
            station_address(0, 0x10000)

    def test_negative_segment_rejected(self):
        with pytest.raises(ValueError):
            station_address(-1, 1)


class TestBridgeSpec:
    def test_default_link_id(self):
        assert BridgeSpec("a", "b").link_id == "a~b"

    def test_zero_delay_rejected(self):
        # The delay is the conservative lookahead; without it no window
        # is safe.
        with pytest.raises(ValueError, match="lookahead"):
            BridgeSpec("a", "b", delay=0.0)

    def test_self_bridge_rejected(self):
        with pytest.raises(ValueError):
            BridgeSpec("a", "a")

    def test_other(self):
        bridge = BridgeSpec("a", "b")
        assert bridge.other("a") == "b"
        assert bridge.other("b") == "a"


class TestValidation:
    def test_valid_chain(self):
        _chain_spec(["lan0", "lan1", "lan2"]).validate()

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TopologySpec(segments=()).validate()

    def test_duplicate_segment_names_rejected(self):
        spec = TopologySpec(
            segments=(
                SegmentSpec("lan0", _noop_builder),
                SegmentSpec("lan0", _noop_builder),
            )
        )
        with pytest.raises(ValueError, match="duplicate"):
            spec.validate()

    def test_dangling_bridge_rejected(self):
        spec = TopologySpec(
            segments=(SegmentSpec("lan0", _noop_builder),),
            bridges=(BridgeSpec("lan0", "nowhere"),),
        )
        with pytest.raises(ValueError, match="unknown segment"):
            spec.validate()

    def test_cycle_rejected(self):
        names = ["lan0", "lan1", "lan2"]
        spec = TopologySpec(
            segments=tuple(SegmentSpec(n, _noop_builder) for n in names),
            bridges=(
                BridgeSpec("lan0", "lan1"),
                BridgeSpec("lan1", "lan2"),
                BridgeSpec("lan2", "lan0"),
            ),
        )
        with pytest.raises(ValueError, match="cycle"):
            spec.validate()

    def test_duplicate_link_ids_rejected(self):
        spec = TopologySpec(
            segments=tuple(
                SegmentSpec(n, _noop_builder) for n in ("a", "b", "c")
            ),
            bridges=(
                BridgeSpec("a", "b"),
                BridgeSpec("a", "b", delay=2e-3),
            ),
        )
        with pytest.raises(ValueError, match="link ids"):
            spec.validate()

    def test_window_is_smallest_bridge_delay(self):
        spec = TopologySpec(
            segments=tuple(
                SegmentSpec(n, _noop_builder) for n in ("a", "b", "c")
            ),
            bridges=(
                BridgeSpec("a", "b", delay=5e-3),
                BridgeSpec("b", "c", delay=2e-3),
            ),
        )
        assert spec.window() == 2e-3

    def test_window_none_without_bridges(self):
        spec = TopologySpec(segments=(SegmentSpec("solo", _noop_builder),))
        assert spec.window() is None


class TestViaIndices:
    def test_chain_routing_sets(self):
        spec = _chain_spec(["lan0", "lan1", "lan2"])
        first, second = spec.bridges
        # From lan0, everything beyond the first bridge is reachable.
        assert spec.via_indices("lan0", first) == frozenset({1, 2})
        # From lan1 back over the first bridge, only lan0.
        assert spec.via_indices("lan1", first) == frozenset({0})
        assert spec.via_indices("lan1", second) == frozenset({2})
        assert spec.via_indices("lan2", second) == frozenset({0, 1})


class TestResolveBuilder:
    def test_callable_passes_through(self):
        assert resolve_builder(_noop_builder) is _noop_builder

    def test_module_colon_function_path(self):
        from repro.bench.topologies import flow_storm_segment

        resolved = resolve_builder(
            "repro.bench.topologies:flow_storm_segment"
        )
        assert resolved is flow_storm_segment

    def test_unknown_name_raises(self):
        with pytest.raises(LookupError):
            resolve_builder("no-such-builder")

    def test_missing_attribute_raises(self):
        with pytest.raises(LookupError):
            resolve_builder("repro.bench.topologies:nope")


class TestSegmentContext:
    def _runtime(self, builder, index=0, names=("lan0", "lan1"), seed=7):
        spec = _chain_spec(list(names), builder, seed=seed)
        return SegmentRuntime(spec, index)

    def test_host_names_carry_segment_prefix(self):
        seen = {}

        def builder(ctx):
            seen["host"] = ctx.host("rx")

        self._runtime(builder)
        assert seen["host"].name == "lan0:rx"

    def test_host_addresses_carry_segment_prefix(self):
        seen = {}

        def builder(ctx):
            seen["host"] = ctx.host("rx")
            seen["index"] = ctx.index

        self._runtime(builder, index=1)
        assert segment_index_of(seen["host"].address) == seen["index"] == 1

    def test_stations_allocate_upward(self):
        seen = {}

        def builder(ctx):
            seen["a"] = ctx.host("a")
            seen["b"] = ctx.host("b")

        self._runtime(builder)
        a = int.from_bytes(seen["a"].address, "big") & 0xFFFF
        b = int.from_bytes(seen["b"].address, "big") & 0xFFFF
        assert (a, b) == (1, 2)

    def test_bridge_station_range_reserved(self):
        """A segment that has allocated every host station refuses the
        next host rather than hand it a bridge's address."""
        def builder(ctx):
            ctx._next_station = BRIDGE_STATION_BASE
            with pytest.raises(ValueError, match="reserved"):
                ctx.host("bad")

        self._runtime(builder)

    def test_address_of_other_segment(self):
        seen = {}

        def builder(ctx):
            seen["addr"] = ctx.address_of("lan1")

        self._runtime(builder, index=0)
        assert segment_index_of(seen["addr"]) == 1

    def test_seed_namespace_matches_derive_seed(self):
        seen = {}

        def builder(ctx):
            seen["seed"] = ctx.seed_for("chaos", 3)

        self._runtime(builder, seed=99)
        assert seen["seed"] == derive_seed(99, "segment", "lan0", "chaos", 3)

    def test_world_seed_derived_from_topology_seed(self):
        runtime = self._runtime(_noop_builder, seed=42)
        assert runtime.world.seed == derive_seed(42, "segment", "lan0")

    def test_endpoints_attached_for_each_bridge(self):
        runtime = self._runtime(_noop_builder, index=1, names=("a", "b", "c"))
        assert sorted(runtime.endpoints) == ["a~b", "b~c"]
        stations = [
            int.from_bytes(ep.address, "big") & 0xFFFF
            for ep in runtime.endpoints.values()
        ]
        assert all(s >= BRIDGE_STATION_BASE for s in stations)

    def test_wire_label_is_per_segment(self):
        runtime = self._runtime(_noop_builder)
        assert runtime.world.segment.wire_label == "wire:lan0"
