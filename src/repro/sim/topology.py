"""Topologies: many Ethernet segments joined by store-and-forward bridges.

The paper's world is a building network, not one cable: Ethernets tied
together by forwarding hosts (the "gateway" role its user-level network
code serves).  This module grows the single-segment simulator into that
shape — a :class:`TopologySpec` names segments, gives each a *builder*
that populates it with hosts and workloads, and joins them with
:class:`BridgeSpec` links.

The decomposition is also what makes the simulation partitionable
(:mod:`repro.sim.shard`): every segment gets its **own**
:class:`~repro.sim.world.World` — own scheduler, own RNGs, own ledger —
regardless of how many processes run them.  The only coupling between
segments is a bridged frame, which always arrives at least the bridge's
store-and-forward delay in the future; that delay is the *lookahead*
that conservative parallel simulation needs.  Because each segment's
world is identical no matter the partitioning, a one-process run and an
N-process run of the same seeded topology are bitwise equal.

Addressing: station addresses encode their segment in the high bytes
(``(segment_index + 1) << 16 | station``), so a bridge can route a
unicast frame by decoding its destination — the spirit of the paper's
network addresses, where the "network number" picks the cable.
Bridges form a tree (validated), so broadcast flooding terminates.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from ..net.ethernet import ETHERNET_10MB, LinkSpec
from ..net.medium import EgressFrame
from .faults import (
    DIRECTION_A_TO_B,
    DIRECTION_B_TO_A,
    interval_covers,
    intervals_for,
)
from .ledger import Ledger, Primitive
from .seeds import derive_seed
from .stats import KernelStats
from .telemetry import TelemetrySnapshot, partition_watchdog
from .world import World

__all__ = [
    "SegmentSpec",
    "BridgeSpec",
    "TopologySpec",
    "BridgeEndpoint",
    "SegmentContext",
    "SegmentRuntime",
    "SegmentReport",
    "station_address",
    "segment_index_of",
    "resolve_builder",
    "BRIDGE_STATION_BASE",
]

BRIDGE_STATION_BASE = 0xF000
"""Station numbers from here up are reserved for bridge endpoints."""


# ---------------------------------------------------------------------------
# addressing
# ---------------------------------------------------------------------------


def station_address(
    segment_index: int, station: int, link: LinkSpec = ETHERNET_10MB
) -> bytes:
    """The address of ``station`` on segment ``segment_index``.

    The segment index (plus one, so legacy single-segment addresses —
    which have zero high bytes — stay distinguishable) occupies the
    bytes above the low two; the station number the low two.
    """
    if not 0 <= station <= 0xFFFF:
        raise ValueError(f"station must fit in 16 bits, got {station}")
    if segment_index < 0:
        raise ValueError("segment index must be non-negative")
    value = ((segment_index + 1) << 16) | station
    return value.to_bytes(link.address_length, "big")


def segment_index_of(address: bytes) -> int | None:
    """The segment index encoded in ``address`` (None for broadcast or
    legacy un-prefixed addresses)."""
    if address == b"\xff" * len(address):
        return None
    prefix = int.from_bytes(address, "big") >> 16
    if prefix == 0:
        return None
    return prefix - 1


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def resolve_builder(ref: "str | Callable") -> Callable:
    """A builder callable from a spec reference.

    References are preferably ``"pkg.module:function"`` strings, because
    strings survive pickling into shard subprocesses under any start
    method.  A bare callable also works for in-process runs.
    """
    if callable(ref):
        return ref
    if ":" in ref:
        module_name, _, attr = ref.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            raise LookupError(f"module {module_name!r} has no {attr!r}")
        return fn
    raise LookupError(
        f"unknown builder {ref!r} (not a module:function path)"
    )


@dataclass(frozen=True)
class SegmentSpec:
    """One segment: its name and the builder that populates it.

    ``builder(ctx, **options)`` receives a :class:`SegmentContext` and
    creates hosts, installs filters and starts workload processes.
    """

    name: str
    builder: "str | Callable"
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BridgeSpec:
    """A store-and-forward bridge between two segments.

    ``delay`` is the forwarding latency — receive completion on one
    cable to transmission start on the other.  It is also the
    topology's synchronization lookahead, so it must be positive.
    """

    a: str
    b: str
    delay: float = 1e-3

    def __post_init__(self) -> None:
        if self.delay <= 0.0:
            raise ValueError("bridge delay must be positive (it is the lookahead)")
        if self.a == self.b:
            raise ValueError(f"bridge must join two distinct segments, got {self.a!r} twice")

    @property
    def link_id(self) -> str:
        """``a~b``: the name faults, flows and endpoints know it by."""
        return f"{self.a}~{self.b}"

    def other(self, segment: str) -> str:
        return self.b if segment == self.a else self.a


@dataclass(frozen=True)
class TopologySpec:
    """The whole simulation, declaratively: segments, bridges, seed.

    A spec is plain data (builders as strings keep it picklable), so the
    identical spec can be built once in-process or once per shard
    subprocess — the foundation of the bitwise-equality guarantee.
    """

    segments: tuple
    bridges: tuple = ()
    seed: int = 0
    ledger: bool = True
    telemetry: bool = False
    #: Declarative link-fault schedule (:class:`repro.sim.faults.LinkFault`
    #: records).  Plain frozen data, so every shard sees identical
    #: outages and link chaos stays partition-independent.
    faults: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "bridges", tuple(self.bridges))
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- structure ------------------------------------------------------

    def index_of(self, segment: str) -> int:
        for index, spec in enumerate(self.segments):
            if spec.name == segment:
                return index
        raise LookupError(f"no segment named {segment!r}")

    def window(self) -> float | None:
        """The synchronization window width: the smallest bridge delay
        (None when there are no bridges — segments are independent)."""
        if not self.bridges:
            return None
        return min(bridge.delay for bridge in self.bridges)

    def validate(self) -> None:
        """Raise on structural problems: duplicate names, dangling
        bridge references, or a cycle in the bridge graph (broadcast
        flooding requires a tree)."""
        names = [spec.name for spec in self.segments]
        if not names:
            raise ValueError("topology needs at least one segment")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        link_ids = [bridge.link_id for bridge in self.bridges]
        if len(set(link_ids)) != len(link_ids):
            raise ValueError(f"duplicate bridge link ids in {link_ids}")
        # Union-find: every bridge must join two previously separate
        # components, or the graph has a cycle and broadcasts would
        # circulate forever.
        parent = {name: name for name in names}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for bridge in self.bridges:
            for end in (bridge.a, bridge.b):
                if end not in parent:
                    raise ValueError(
                        f"bridge {bridge.link_id!r} references unknown segment {end!r}"
                    )
            root_a, root_b = find(bridge.a), find(bridge.b)
            if root_a == root_b:
                raise ValueError(
                    f"bridge {bridge.link_id!r} creates a cycle; "
                    "the bridge graph must be a tree"
                )
            parent[root_a] = root_b
        known_links = set(link_ids)
        for fault in self.faults:
            if fault.link_id not in known_links:
                raise ValueError(
                    f"fault on unknown link {fault.link_id!r} "
                    f"(have: {sorted(known_links)})"
                )

    def bridges_of(self, segment: str) -> list:
        """Bridges touching ``segment``, in spec order."""
        return [
            bridge
            for bridge in self.bridges
            if segment in (bridge.a, bridge.b)
        ]

    def via_indices(self, segment: str, bridge: BridgeSpec) -> frozenset:
        """Segment indices reachable from ``segment`` through ``bridge``
        — the forwarding set for that bridge endpoint.

        The graph is a tree (validated), so this is simply the far-side
        component when the bridge's edge is removed.
        """
        start = bridge.other(segment)
        reachable = {start}
        frontier = [start]
        while frontier:
            here = frontier.pop()
            for other in self.bridges:
                if other.link_id == bridge.link_id:
                    continue
                if here not in (other.a, other.b):
                    continue
                peer = other.other(here)
                if peer not in reachable:
                    reachable.add(peer)
                    frontier.append(peer)
        return frozenset(self.index_of(name) for name in reachable)


# ---------------------------------------------------------------------------
# bridge endpoints
# ---------------------------------------------------------------------------


class BridgeEndpoint:
    """One side of a bridge: a promiscuous tap on its segment.

    Forwarding is *capture here, retransmit there*: frames whose
    destination routes through this bridge (or broadcasts, which flood
    the tree) are recorded as :class:`~repro.net.medium.EgressFrame` on
    the local segment's egress queue, stamped ``now + delay``.  The
    shard runtime ships them to whoever owns the adjacent segment; the
    far endpoint retransmits them there.  The endpoint never forwards
    frames it transmitted itself (the segment skips the sender on
    delivery), so the tree topology makes flooding terminate.
    """

    def __init__(
        self,
        bridge: BridgeSpec,
        *,
        own_segment: str,
        own_index: int,
        peer_segment: str,
        via: frozenset,
        address: bytes,
        link: LinkSpec,
        outages: tuple = (),
    ) -> None:
        self.bridge = bridge
        self.link_id = bridge.link_id
        self.delay = bridge.delay
        self.own_segment = own_segment
        self.own_index = own_index
        self.peer_segment = peer_segment
        self.via = via
        self.address = address
        self.link = link
        #: sorted ``(start, end)`` outages for this endpoint's own
        #: crossing direction (from the topology's fault schedule)
        self.outages = tuple(outages)
        self.segment = None  # set by EthernetSegment.attach
        self.frames_forwarded = 0
        self.frames_ignored = 0
        self.frames_dropped_link_down = 0
        #: frames injected *into* this segment through this endpoint
        #: (bumped by the shard runtime; the partition watchdog's signal)
        self.frames_ingress = 0
        #: every crossing this endpoint captured, as
        #: ``(link_id, seq, captured_at, deliver_at, src, dst)`` — the
        #: stitched-trace flow records.  Keyed ``(link_id, seq)`` they
        #: identify one frame's hop between shards; the capture side
        #: alone carries both endpoints and both instants, so the
        #: delivery side records nothing.  Always collected: the data
        #: is sim-deterministic and lives outside the run digest.
        self.flows: list[tuple] = []
        self._seq = 0

    def link_down_at(self, t: float) -> bool:
        """Is this endpoint's crossing inside a scheduled outage at ``t``?"""
        return bool(self.outages) and interval_covers(self.outages, t)

    def receive(self, frame: bytes) -> None:
        """Frame seen on the local cable — forward it or ignore it."""
        destination = self.link.destination_of(frame)
        if destination != self.link.broadcast:
            target = segment_index_of(destination)
            if target is None or target == self.own_index or target not in self.via:
                self.frames_ignored += 1
                return
        now = self.segment.scheduler.now
        deliver_at = now + self.delay
        # The fault schedule is static data, so "in flight when the
        # link dropped" is decidable at capture: a frame is carried only
        # if the link is up at both the capture and delivery instants.
        if self.link_down_at(now) or self.link_down_at(deliver_at):
            self.frames_dropped_link_down += 1
            self.segment.note_wire_fate(Primitive.DROP_LINK_DOWN)
            return
        self._seq += 1
        self.frames_forwarded += 1
        self.flows.append(
            (
                self.link_id,
                self._seq,
                now,
                deliver_at,
                self.own_segment,
                self.peer_segment,
            )
        )
        self.segment.push_egress(
            EgressFrame(
                deliver_at=deliver_at,
                dst_segment=self.peer_segment,
                src_segment=self.own_segment,
                link_id=self.link_id,
                seq=self._seq,
                frame=frame,
            )
        )

    def __repr__(self) -> str:
        return (
            f"BridgeEndpoint({self.link_id} @ {self.own_segment} -> "
            f"{self.peer_segment}, forwarded={self.frames_forwarded})"
        )


# ---------------------------------------------------------------------------
# building one segment
# ---------------------------------------------------------------------------


class SegmentContext:
    """What a segment builder gets to work with.

    Wraps the segment's private :class:`World` with topology-aware host
    creation (names prefixed ``segment:``, addresses carrying the
    segment prefix) plus the derived-seed namespace and a *report* hook
    for shipping scenario metrics out of a shard subprocess.
    """

    def __init__(self, runtime: "SegmentRuntime") -> None:
        self._runtime = runtime
        self.world = runtime.world
        self.topology = runtime.topology
        self.name = runtime.spec.name
        self.index = runtime.index
        self._next_station = 1
        self._reports: dict[str, Callable[[], Any]] = {}

    def host(self, name: str, **kwargs):
        """Add a host to this segment.

        The world-visible name is ``{segment}:{name}`` (host names must
        be disjoint across segments for stats/ledger merging) and the
        address encodes the segment prefix.  Stations allocate from 1
        upward.
        """
        station = self._next_station
        if station >= BRIDGE_STATION_BASE:
            raise ValueError(
                f"stations >= {BRIDGE_STATION_BASE:#x} are reserved for bridges"
            )
        self._next_station = station + 1
        address = station_address(self.index, station, self.world.link)
        return self.world.host(f"{self.name}:{name}", address, **kwargs)

    def address_of(self, segment: str, station: int = 1) -> bytes:
        """The address of ``station`` on another segment — how builders
        aim cross-segment traffic without holding the other world."""
        return station_address(
            self.topology.index_of(segment), station, self.world.link
        )

    def seed_for(self, *path) -> int:
        """A child seed under this segment's namespace (partition- and
        ``PYTHONHASHSEED``-independent)."""
        return derive_seed(self.topology.seed, "segment", self.name, *path)

    def rng(self, *path):
        import random

        return random.Random(self.seed_for(*path))

    def report(self, key: str, fn: Callable[[], Any]) -> None:
        """Register a zero-argument callable whose (picklable) result is
        collected into the segment's report at the end of the run."""
        self._reports[key] = fn

    def collect_reports(self) -> dict[str, Any]:
        return {key: fn() for key, fn in self._reports.items()}


@dataclass
class SegmentReport:
    """One segment's collected results — plain picklable data.

    Shards ship these back over their pipes; the orchestrator merges
    them (in spec order, for determinism) into the whole-topology view.
    """

    name: str
    stats: dict[str, KernelStats]
    ledger: Ledger | None
    telemetry: TelemetrySnapshot | None
    report: dict
    wire: dict
    events_fired: int
    now: float
    #: bridge-crossing records from every endpoint (capture order);
    #: feeds the stitched trace's flow events, outside the digest
    flows: list = field(default_factory=list)


class SegmentRuntime:
    """One live segment: its world, bridge endpoints, and context.

    Construction is identical no matter which process runs it — that is
    the whole point.  Bridge endpoints attach before builder hosts (in
    spec order) so NIC delivery order, and therefore event sequence
    numbers, are partition-independent.
    """

    def __init__(self, topology: TopologySpec, index: int) -> None:
        self.topology = topology
        self.index = index
        self.spec = topology.segments[index]
        name = self.spec.name
        self.world = World(
            seed=derive_seed(topology.seed, "segment", name),
            ledger=topology.ledger,
        )
        self.world.segment.wire_label = f"wire:{name}"
        if topology.telemetry:
            self.world.enable_telemetry()
        self.endpoints: dict[str, BridgeEndpoint] = {}
        for bridge in topology.bridges_of(name):
            station = BRIDGE_STATION_BASE + len(self.endpoints)
            direction = (
                DIRECTION_A_TO_B if name == bridge.a else DIRECTION_B_TO_A
            )
            endpoint = BridgeEndpoint(
                bridge,
                own_segment=name,
                own_index=index,
                peer_segment=bridge.other(name),
                via=topology.via_indices(name, bridge),
                address=station_address(index, station, self.world.link),
                link=self.world.link,
                outages=intervals_for(topology.faults, bridge.link_id, direction),
            )
            self.world.segment.attach(endpoint)
            self.endpoints[bridge.link_id] = endpoint
        if self.world.telemetry is not None and self.endpoints:
            # Bridge gauges live under a per-segment pseudo-host (so
            # they merge disjointly across shards) and feed the
            # cross-segment partition watchdog.
            pseudo = f"segment:{name}"
            for link_id, endpoint in self.endpoints.items():
                self.world.telemetry.register_gauges(
                    pseudo,
                    f"bridge.{link_id}.",
                    {
                        "ingress": lambda e=endpoint: float(e.frames_ingress),
                        "forwarded": lambda e=endpoint: float(
                            e.frames_forwarded
                        ),
                        "dropped_link_down": lambda e=endpoint: float(
                            e.frames_dropped_link_down
                        ),
                    },
                )
                self.world.telemetry.add_rule(
                    partition_watchdog(link_id), host=pseudo
                )
        self.context = SegmentContext(self)
        builder = resolve_builder(self.spec.builder)
        builder(self.context, **dict(self.spec.options))

    # -- the shard-side synchronization surface -------------------------

    def run_until(self, horizon: float) -> int:
        return self.world.scheduler.run_until(horizon)

    def run_to_quiescence(self) -> int:
        before = self.world.scheduler.events_fired
        self.world.run()
        return self.world.scheduler.events_fired - before

    def next_time(self) -> float | None:
        return self.world.scheduler.next_time()

    def drain_egress(self) -> list:
        return self.world.segment.drain_egress()

    def inject(self, records: list) -> None:
        """Schedule inbound bridged frames for retransmission here.

        Records sort by their canonical key before scheduling, so the
        scheduler's sequence-number tie-break sees the same order no
        matter which shards produced them — the linchpin of bitwise
        partition-independence.
        """
        if not records:
            return
        scheduler = self.world.scheduler
        segment = self.world.segment
        for record in sorted(records, key=lambda r: r.sort_key):
            endpoint = self.endpoints[record.link_id]
            endpoint.frames_ingress += 1
            scheduler.schedule_at(
                record.deliver_at, segment.transmit, endpoint, record.frame
            )
        if self.world.telemetry is not None:
            self.world.telemetry.resume()

    # -- collection -----------------------------------------------------

    def collect(self) -> SegmentReport:
        world = self.world
        segment = world.segment
        return SegmentReport(
            name=self.spec.name,
            stats={
                host.name: host.kernel.stats.snapshot() for host in world.hosts
            },
            ledger=world.ledger,
            telemetry=(
                world.telemetry.export() if world.telemetry is not None else None
            ),
            report=self.context.collect_reports(),
            wire={
                "frames_carried": segment.frames_carried,
                "frames_lost": segment.frames_lost,
                "bytes_carried": segment.bytes_carried,
                "frames_forwarded": sum(
                    endpoint.frames_forwarded
                    for endpoint in self.endpoints.values()
                ),
                "frames_ingress": sum(
                    endpoint.frames_ingress
                    for endpoint in self.endpoints.values()
                ),
                "frames_dropped_link_down": sum(
                    endpoint.frames_dropped_link_down
                    for endpoint in self.endpoints.values()
                ),
            },
            events_fired=world.scheduler.events_fired,
            now=world.scheduler.now,
            flows=[
                record
                for endpoint in self.endpoints.values()
                for record in endpoint.flows
            ],
        )
