"""Everything ``python -m repro run`` can name: one registry of
:class:`~repro.sim.topology.TopologySpec` factories and the segment
builders they reference.

Segment builders here are referenced by dotted path
(``"repro.bench.topologies:flow_storm_segment"``) so a spec stays
picklable into shard subprocesses under any ``multiprocessing`` start
method.  A builder populates its segment through the same ``populate_*``
function the table benchmarks call on a ``World`` of their own
(:mod:`repro.bench.scenarios`), so no world is written twice; what the
benchmark reads off its world, the builder registers as ``ctx.report``
entries.

The workhorse is the **flow-cache miss storm**: every segment runs a
zero-cost blaster offering a multiple of the receiver's saturation rate
while cycling through more spoofed source addresses than the receiver's
flow cache has slots — the "millions of short flows" regime where a
direct-mapped memo thrashes.  A slice of the traffic crosses segments
(over the bridges), so the storm also exercises the conservative
synchronization path and gives the sharding difftest oracle real
cross-shard events to get wrong.  The single-world scenarios
(``receive``, the four ``*-chaos`` soaks, the two ``overload-*`` storms)
are one-segment topologies: same spec type, same runner, same result.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass

from ..protocols.vmtp import VMTPClient, VMTPServer
from ..sim import Open, Sleep, Write
from ..sim.costs import FREE
from ..sim.faults import link_partition
from ..sim.topology import BridgeSpec, SegmentSpec, TopologySpec
from .scenarios import (
    ACCEPTANCE_CHAOS,
    CHAOS_SOAKS,
    STORM_FRAME_BYTES,
    TEST_ETHERTYPE,
    blast,
    populate_overload_storm,
    populate_paced_receive,
    read_forever,
    receive_saturation_pps,
)

__all__ = [
    "flow_storm_segment",
    "flow_storm_topology",
    "partition_storm_segment",
    "partition_storm_topology",
    "receive_segment",
    "chaos_segment",
    "overload_segment",
    "TOPOLOGIES",
    "named_topology",
]


BRIDGE_DELAY = 2e-3
"""Every storm's bridge latency, and so its synchronization window."""


def _spoofed_source(segment_index: int, flow: int) -> bytes:
    """A distinct source address per (segment, flow).

    Spoofed sources live under the ``0xEE`` prefix, far from the
    station-address namespace; each distinct source gives the flow
    cache a distinct key for the same matching filter — the miss storm.
    """
    return (
        b"\xee"
        + segment_index.to_bytes(2, "big")
        + flow.to_bytes(3, "big")
    )


FLOW_STORM_LOAD = 2.0
"""Offered load, in multiples of the receiver's saturation rate."""
FLOW_STORM_CROSS_EVERY = 16
"""Every this-many-th storm frame crosses to the next segment."""
FLOW_STORM_QUEUE = 64
"""The storm receiver's NIC input ring and its port queue."""


def flow_storm_segment(
    ctx,
    *,
    duration: float = 0.5,
    flows: int = 256,
    cache_size: int = 64,
    cross_target: str | None = None,
) -> None:
    """One segment of the flow-cache miss storm.

    A receiver with a ``cache_size``-slot flow cache reads everything
    matching the test filter; a free-CPU blaster offers
    :data:`FLOW_STORM_LOAD` times the receiver's saturation rate for
    ``duration`` simulated seconds, rotating through ``flows`` spoofed
    source addresses (``flows > cache_size`` guarantees steady-state
    misses).  Every :data:`FLOW_STORM_CROSS_EVERY`-th frame goes to
    ``cross_target``'s receiver instead — bridged, cross-shard traffic.
    """
    receiver = ctx.host("receiver", input_queue_limit=FLOW_STORM_QUEUE)
    receiver.install_packet_filter(flow_cache=cache_size)
    blaster = ctx.host("blaster", costs=FREE)
    blaster.install_packet_filter()

    saturation = receive_saturation_pps(ctx.world.costs)
    pace = 1.0 / (saturation * FLOW_STORM_LOAD)
    rng = ctx.rng("flow-storm", "pace")
    body = bytes(max(0, STORM_FRAME_BYTES - receiver.link.header_length))
    local_frames = [
        blaster.link.frame(
            receiver.address,
            _spoofed_source(ctx.index, flow),
            TEST_ETHERTYPE,
            body,
        )
        for flow in range(flows)
    ]
    cross_frame = None
    if cross_target is not None:
        cross_frame = blaster.link.frame(
            ctx.address_of(cross_target, 1),
            blaster.address,
            TEST_ETHERTYPE,
            body,
        )
    sent = {"local": 0, "cross": 0}

    def storm():
        fd = yield Open("pf")
        yield Sleep(0.02)  # let the reader bind its filter first
        sequence = 0
        while ctx.world.now < duration:
            if cross_frame is not None and (
                sequence % FLOW_STORM_CROSS_EVERY == FLOW_STORM_CROSS_EVERY - 1
            ):
                yield Write(fd, cross_frame)
                sent["cross"] += 1
            else:
                yield Write(fd, local_frames[sequence % flows])
                sent["local"] += 1
            sequence += 1
            # Jittered pacing from the segment's derived stream: the
            # same draws no matter which process runs this segment.
            yield Sleep(pace * (0.75 + 0.5 * rng.random()))

    receiver.spawn("reader", read_forever(FLOW_STORM_QUEUE))
    blaster.spawn("blaster", storm())

    cache = receiver.packet_filter.demux.flow_cache

    def cache_report() -> dict:
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hit_rate,
            "size": cache_size,
            "flows": flows,
        }

    ctx.report("flow_cache", cache_report)
    ctx.report("sent", lambda: dict(sent))
    ctx.report(
        "received", lambda: receiver.kernel.stats.frames_received
    )


def flow_storm_topology(
    *,
    segments: int = 2,
    seed: int = 0,
    duration: float = 0.5,
    ledger: bool = True,
    **options,
) -> TopologySpec:
    """A chain of ``segments`` flow-storm segments.

    Segment ``lan{i}`` bridges to ``lan{i+1}``; cross traffic aims at
    the next segment around the chain (the last segment's crosses the
    whole chain back to the first — multi-hop forwarding).  Extra
    keyword ``options`` pass through to every
    :func:`flow_storm_segment`.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    names = [f"lan{index}" for index in range(segments)]
    specs = []
    for index, name in enumerate(names):
        cross = names[(index + 1) % segments] if segments > 1 else None
        specs.append(
            SegmentSpec(
                name,
                "repro.bench.topologies:flow_storm_segment",
                {
                    "duration": duration,
                    "cross_target": cross,
                    **options,
                },
            )
        )
    bridges = tuple(
        BridgeSpec(names[index], names[index + 1], delay=BRIDGE_DELAY)
        for index in range(segments - 1)
    )
    return TopologySpec(
        segments=tuple(specs), bridges=bridges, seed=seed, ledger=ledger
    )


def _storm_blob(segment_bytes: int) -> bytes:
    """The reply payload both sides derive independently (the client
    verifies responses byte-for-byte without shipping the blob)."""
    return bytes(index % 251 for index in range(segment_bytes))


PARTITION_SEGMENT_BYTES = 2048
"""The reply every partition-storm call reads."""
PARTITION_RETRIES = 64
"""The client's retry budget: enough to outlast the outage."""
PARTITION_LOCAL_PACE = 2e-3
"""Seconds between the local frames every segment paces."""


def partition_storm_segment(
    ctx,
    *,
    duration: float = 1.2,
    role: str = "relay",
    peer: str | None = None,
) -> None:
    """One segment of the adaptive-RTO partition storm.

    The ``client`` segment runs a VMTP client hammering the ``server``
    segment's responder across the bridges; a scheduled link partition
    drops the exchange mid-run, driving the client's Jacobson timer
    into exponential backoff (the *storm*) until the link heals and the
    backed-off retry finally lands.  Every segment — relays included —
    also paces purely local packet-filter traffic for the whole run:
    that keeps the telemetry sampler ticking through the outage and
    supplies the "local traffic stays healthy" half of the partition
    watchdog's predicate.
    """
    world = ctx.world
    blob = _storm_blob(PARTITION_SEGMENT_BYTES)
    counters = {"calls": 0, "intact": 0, "retries": 0, "timeouts": 0}

    if role == "client":
        if peer is None:
            raise ValueError("client segment needs a peer to call")
        protocol = ctx.host("client")
        protocol.install_packet_filter()

        def client():
            endpoint = VMTPClient(
                protocol,
                client_id=7,
                server_station=ctx.address_of(peer, 1),
                server_id=35,
                max_retries=PARTITION_RETRIES,
            )
            yield from endpoint.start()
            while world.now < duration:
                response = yield from endpoint.call(b"read")
                counters["calls"] += 1
                if response == blob:
                    counters["intact"] += 1
                counters["retries"] = endpoint.retries
                counters["timeouts"] = endpoint.rto.timeouts

        protocol.spawn("vmtp-client", client())
        ctx.report("vmtp", lambda: dict(counters))
    elif role == "server":
        protocol = ctx.host("server")
        protocol.install_packet_filter()

        def server():
            endpoint = VMTPServer(protocol, server_id=35)
            yield from endpoint.start()
            while True:
                request, reply = yield from endpoint.receive()
                counters["calls"] += 1
                yield from reply(blob)

        protocol.spawn("vmtp-server", server())
        ctx.report("vmtp", lambda: dict(counters))
    elif role != "relay":
        raise ValueError(f"unknown partition-storm role {role!r}")

    reader = ctx.host("local-rx")
    reader.install_packet_filter()
    pacer = ctx.host("local-tx", costs=FREE)
    pacer.install_packet_filter()
    body = bytes(max(0, STORM_FRAME_BYTES - pacer.link.header_length))
    frame = pacer.link.frame(
        reader.address, pacer.address, TEST_ETHERTYPE, body
    )
    rng = ctx.rng("partition-storm", "local")
    received = {"frames": 0}

    reader.spawn("local-reader", read_forever(tally=received))
    pacer.spawn(
        "local-pacer",
        blast(
            world, frame, PARTITION_LOCAL_PACE,
            head_start=0.01, until=duration, rng=rng,
        ),
    )
    ctx.report("local", lambda: dict(received))


PARTITION_AT = 0.2
HEAL_AT = 0.55
"""The simulated seconds the partition storm's middle link is down
over: ``[PARTITION_AT, HEAL_AT)``."""


def partition_storm_topology(
    *,
    segments: int = 2,
    seed: int = 0,
    duration: float = 1.2,
    **options,
) -> TopologySpec:
    """A VMTP exchange across a chain that partitions and heals.

    The client lives on ``lan0``, the server on the last segment, and
    the chain's middle link goes down over ``[PARTITION_AT, HEAL_AT)``.
    Telemetry is on — the partition watchdog and RTO backoff storm
    alerts are the point of this scenario.
    """
    if segments < 2:
        raise ValueError("a partition storm needs at least two segments")
    names = [f"lan{index}" for index in range(segments)]
    specs = []
    for index, name in enumerate(names):
        if index == 0:
            role, peer = "client", names[-1]
        elif index == segments - 1:
            role, peer = "server", None
        else:
            role, peer = "relay", None
        specs.append(
            SegmentSpec(
                name,
                "repro.bench.topologies:partition_storm_segment",
                {
                    "duration": duration,
                    "role": role,
                    "peer": peer,
                    **options,
                },
            )
        )
    bridges = tuple(
        BridgeSpec(names[index], names[index + 1], delay=BRIDGE_DELAY)
        for index in range(segments - 1)
    )
    middle = bridges[(len(bridges) - 1) // 2]
    return TopologySpec(
        segments=tuple(specs),
        bridges=bridges,
        seed=seed,
        telemetry=True,
        faults=link_partition(middle.link_id, PARTITION_AT, HEAL_AT),
    )


# ---------------------------------------------------------------------------
# the single-world scenarios, as one-segment topologies
# ---------------------------------------------------------------------------


def receive_segment(ctx) -> None:
    """The clean paced receive path (table 6-8's kernel-demux row), 40
    packets of 128 bytes."""
    run = populate_paced_receive(ctx.world, ctx.host, count=40)
    ctx.report("received", lambda: run.dest.result)


def chaos_segment(ctx, *, protocol: str) -> None:
    """One protocol's soak (a key of :data:`CHAOS_SOAKS`) under the
    acceptance chaos profile, weathered from this segment's seed."""
    populate, _ = CHAOS_SOAKS[protocol]
    _, outcome = populate(
        ctx.world, ctx.host, chaos=ACCEPTANCE_CHAOS, seed=ctx.topology.seed
    )
    ctx.report(
        "outcome",
        lambda: {
            key: asdict(value) if is_dataclass(value) else value
            for key, value in outcome().items()
        },
    )


def overload_segment(ctx, *, mode: str, duration: float) -> None:
    """The livelock experiment at 4x the receiver's saturation rate."""
    storm = populate_overload_storm(
        ctx.world, ctx.host,
        mode=mode, offered_multiplier=4.0, duration=duration,
    )
    ctx.report("outcome", storm.outcome)


def _one_segment(summary: str, builder, *, duration=None, **options):
    """A factory for a single-world runnable: one segment built by
    ``builder(ctx, **options)``, no bridges, ledger and telemetry on.

    ``duration`` is the default for a runnable that has one; the others
    run a fixed exchange to completion and refuse to be given one.
    """
    default_duration = duration

    def factory(
        *, segments: int = 1, seed: int = 0, duration: float | None = None
    ) -> TopologySpec:
        if segments != 1:
            raise ValueError(f"a one-segment world, not {segments} segments")
        timed = {}
        if default_duration is not None:
            timed["duration"] = (
                default_duration if duration is None else duration
            )
        elif duration is not None:
            raise ValueError(
                "a fixed exchange that runs until it completes; "
                "it takes no duration"
            )
        segment = SegmentSpec(
            "lan0",
            f"repro.bench.topologies:{builder.__name__}",
            {**options, **timed},
        )
        return TopologySpec(
            segments=(segment,), seed=seed, ledger=True, telemetry=True
        )

    factory.__doc__ = summary
    return factory


TOPOLOGIES = {
    "receive": _one_segment(
        "the clean paced receive path (table 6-8's kernel-demux row)",
        receive_segment,
    ),
    "bsp-chaos": _one_segment(
        "a BSP bulk transfer through burst loss, reordering, corruption",
        chaos_segment, protocol="bsp",
    ),
    "vmtp-chaos": _one_segment(
        "VMTP bulk reads through the same chaos profile",
        chaos_segment, protocol="vmtp",
    ),
    "rarp-chaos": _one_segment(
        "a diskless RARP boot through it (corruption off: no checksum)",
        chaos_segment, protocol="rarp",
    ),
    "pup-chaos": _one_segment(
        "Pup echo pings through it",
        chaos_segment, protocol="pup",
    ),
    "overload-interrupt": _one_segment(
        "a 4x-saturation packet storm, classic interrupts: livelock",
        overload_segment, duration=0.5, mode="interrupt",
    ),
    "overload-polling": _one_segment(
        "the same storm with the overload policy armed: a flat plateau",
        overload_segment, duration=0.5, mode="polling",
    ),
    "flow_storm": flow_storm_topology,
    "partition_storm": partition_storm_topology,
}
"""Every runnable ``python -m repro run`` can name: name -> factory
taking ``segments``, ``seed`` and ``duration`` (each optional) and
returning a :class:`TopologySpec`.  A factory raises :class:`ValueError`
for a value its topology cannot honour."""


def named_topology(
    name: str,
    *,
    segments: int | None = None,
    seed: int = 0,
    duration: float | None = None,
) -> TopologySpec:
    """Build a named topology (see :data:`TOPOLOGIES`); ``None`` leaves
    ``segments``/``duration`` at the topology's own default."""
    try:
        factory = TOPOLOGIES[name]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGIES))
        raise LookupError(f"unknown topology {name!r} (have: {known})")
    chosen = {"segments": segments, "duration": duration}
    return factory(
        seed=seed,
        **{key: value for key, value in chosen.items() if value is not None},
    )
