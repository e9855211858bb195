"""The four whole-world workloads.

``recv_path`` is the table 6-8 kernel-demux receive path, ``bsp_bulk``
the paper's subject (a user-level Pup/BSP transfer over the packet
filter), and ``flow_storm_s1``/``flow_storm_s2`` one bridged four-segment
storm run on one process and on two.  All use the default ``CHECKED``
engine, so none of ``core``'s compile machinery runs: what they time is
``sim.*``, ``net.*`` and ``core.device``.

Every repetition builds its world afresh and runs it to the end; the
digest of the simulated counters is the job's fingerprint, and must not
move when only host time was meant to.
"""

from __future__ import annotations

import time
from statistics import median
from types import SimpleNamespace

from repro.core import PFIoctl, compile_expr, word
from repro.difftest.sharding import stats_digest
from repro.protocols.bsp import BSPEndpoint
from repro.protocols.pup import PupAddress
from repro.sim import (
    FREE,
    BridgeSpec,
    Ioctl,
    Open,
    Read,
    SegmentSpec,
    Sleep,
    TopologySpec,
    World,
    Write,
    orchestrator,
)

from . import gen
from .stats import summary
from .workloads import Check, Rep, Workload

__all__ = ["RecvPath", "BspBulk", "FlowStormS1", "FlowStormS2", "GOLDEN_SEED"]

GOLDEN_SEED = 0
"""The seed ``golden.json`` was recorded with.  A run on another seed
does one extra, untimed job on this one and compares that."""

ETHERTYPE = 0x0900   #: data-link type of the synthetic traffic
FRAME_BYTES = 128    #: the smallest paper size: per-packet cost dominates
PACE = 0.012         #: table 6-8's sender gap, simulated seconds

# The paper's rows the simulated results are compared with.
PAPER_RECV_MS = {128: 2.3, 1500: 4.0}   # table 6-8, kernel demux
PAPER_BSP_KBYTES_S = 38.0               # table 6-6

_clock = time.perf_counter_ns


def test_filter():
    return compile_expr(word(6) == ETHERTYPE, priority=10)


def alternate(job_a, job_b, pairs: int = 5) -> tuple[float, float]:
    """Median wall time of two jobs run turn about, so a drift in the
    host's speed falls on both alike."""
    walls_a, walls_b = [], []
    for _ in range(pairs):
        walls_a.append(job_a().wall_ns)
        walls_b.append(job_b().wall_ns)
    return median(walls_a), median(walls_b)


def world_digest(world) -> str:
    return stats_digest(
        SimpleNamespace(stats={host.name: host.stats for host in world.hosts})
    )


def world_counts(world, receiver) -> dict:
    """Exact per-job counters the per-layer metrics divide by."""
    stats = receiver.stats
    return {
        "events": world.scheduler.events_fired,
        "frames": world.segment.frames_carried,
        "predicates": stats.filter_predicates,
        "instructions": stats.filter_instructions,
        "seen": receiver.packet_filter.demux.packets_seen,
        "read_packets": sum(
            host.packet_filter.packets_delivered for host in world.hosts
        ),
        "overflow_drops": receiver.packet_filter.packets_dropped_overflow,
        "rx_drops": sum(host.nic.frames_dropped for host in world.hosts),
    }


# ---------------------------------------------------------------------------
# recv_path
# ---------------------------------------------------------------------------


def receive_job(
    frames: int, seed: int, *, frame_bytes: int = FRAME_BYTES, ledger: bool = False
) -> Rep:
    """A paced sender, a receiver with one bound filter, ``frames``
    frames; returns once the receiver has read them all."""
    start = _clock()
    world = World(ledger=ledger)
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()
    body = gen.payload(frame_bytes - sender.link.header_length, seed)
    frame = sender.link.frame(receiver.address, sender.address, ETHERTYPE, body)
    reads = {"packets": 0}
    mark = {}

    def send():
        fd = yield Open("pf")
        yield Sleep(0.05)  # let the receiver bind its filter first
        mark["cpu"] = receiver.stats.cpu_time
        for _ in range(frames):
            yield Write(fd, frame)
            yield Sleep(PACE)

    def receive():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, test_filter())
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 64)
        while reads["packets"] < frames:
            batch = yield Read(fd)
            reads["packets"] += len(batch)

    dest = receiver.spawn("dest", receive())
    sender.spawn("sender", send())
    world.run_until_done(dest)
    wall = _clock() - start
    spent = receiver.stats.cpu_time - mark["cpu"]
    return Rep(
        packets=reads["packets"],
        wall_ns=wall,
        digest=world_digest(world),
        counts=world_counts(world, receiver),
        sim={"recv_ms_per_packet": spent / frames * 1000.0},
    )


# ---------------------------------------------------------------------------
# bsp_bulk
# ---------------------------------------------------------------------------


def bsp_job(nbytes: int, seed: int) -> Rep:
    """Send ``nbytes`` of seeded payload over user-level Pup/BSP."""
    data = gen.payload(nbytes, seed)
    start = _clock()
    world = World()
    sender = world.host("sender")
    receiver = world.host("receiver")
    sender.install_packet_filter()
    receiver.install_packet_filter()
    source_end = BSPEndpoint(sender, local_socket=0x44)
    sink_end = BSPEndpoint(receiver, local_socket=0x35)

    def source():
        yield from source_end.start()
        began = world.now
        yield from source_end.send_stream(
            receiver.address,
            PupAddress(net=1, host=receiver.address[-1], socket=0x35),
            data,
        )
        return world.now - began

    def sink():
        yield from sink_end.start()
        return (yield from sink_end.recv_all())

    sink_process = receiver.spawn("bsp-sink", sink())
    source_process = sender.spawn("bsp-source", source())
    world.run_until_done(source_process, sink_process)
    wall = _clock() - start
    received = sink_end.stats.data_packets_received
    counts = world_counts(world, receiver)
    counts["retransmits"] = source_end.stats.retransmissions
    counts["intact"] = int(sink_process.result == data)
    return Rep(
        packets=received,
        wall_ns=wall,
        digest=world_digest(world),
        counts=counts,
        sim={"kbytes_per_s": nbytes / 1024.0 / source_process.result},
    )


# ---------------------------------------------------------------------------
# flow_storm
# ---------------------------------------------------------------------------

STORM = {
    "segments": 4,
    "offered": 2.0,      # multiples of the receiver's saturation rate
    "flows": 256,        # spoofed sources cycled ...
    "cache": 64,         # ... against this many flow-cache slots
    "cross_every": 16,   # every 16th frame crosses a bridge
    "queue": 64,         # NIC input queue and port queue bound
    "bridge_delay": 2e-3,
}


def storm_segment(ctx, *, duration: float, cross_target: str) -> None:
    """One segment: a free-CPU blaster at twice the receiver's saturation
    rate, cycling more spoofed sources than the flow cache has slots;
    every sixteenth frame goes to the next segment's receiver."""
    receiver = ctx.host("receiver", input_queue_limit=STORM["queue"])
    receiver.install_packet_filter(flow_cache=STORM["cache"])
    blaster = ctx.host("blaster", costs=FREE)
    blaster.install_packet_filter()

    costs = ctx.world.costs
    per_packet = (
        costs.interrupt_service
        + costs.buffer_cost(FRAME_BYTES)
        + costs.pf_fixed
        + costs.filter_cost(1, 4)
        + costs.copy_cost(FRAME_BYTES)
        + costs.syscall
        + costs.context_switch
        + costs.wakeup
    )
    pace = per_packet / STORM["offered"]
    jitter = ctx.rng("storm", "pace")
    body = bytes(FRAME_BYTES - receiver.link.header_length)
    local = [
        blaster.link.frame(
            receiver.address,
            b"\xee" + ctx.index.to_bytes(2, "big") + flow.to_bytes(3, "big"),
            ETHERTYPE,
            body,
        )
        for flow in range(STORM["flows"])
    ]
    crossing = blaster.link.frame(
        ctx.address_of(cross_target, 1), blaster.address, ETHERTYPE, body
    )
    reads = {"packets": 0}

    def blast():
        fd = yield Open("pf")
        yield Sleep(0.02)  # let the reader bind its filter first
        sequence = 0
        while ctx.world.now < duration:
            if sequence % STORM["cross_every"] == STORM["cross_every"] - 1:
                yield Write(fd, crossing)
            else:
                yield Write(fd, local[sequence % STORM["flows"]])
            sequence += 1
            yield Sleep(pace * (0.75 + 0.5 * jitter.random()))

    def read_loop():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, test_filter())
        yield Ioctl(fd, PFIoctl.SETBATCH, True)
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, STORM["queue"])
        while True:
            batch = yield Read(fd)
            reads["packets"] += len(batch)

    receiver.spawn("reader", read_loop())
    blaster.spawn("blaster", blast())
    cache = receiver.packet_filter.demux.flow_cache
    ctx.report(
        "counts",
        lambda: {
            **world_counts(ctx.world, receiver),
            "returned": reads["packets"],
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        },
    )


def storm_spec(duration: float, seed: int) -> TopologySpec:
    names = [f"lan{index}" for index in range(STORM["segments"])]
    return TopologySpec(
        segments=tuple(
            # A callable builder survives fork (the default start method
            # wherever os.fork exists), which is all this benchmark needs.
            SegmentSpec(
                name,
                storm_segment,
                {
                    "duration": duration,
                    "cross_target": names[(index + 1) % len(names)],
                },
            )
            for index, name in enumerate(names)
        ),
        bridges=tuple(
            BridgeSpec(a, b, delay=STORM["bridge_delay"])
            for a, b in zip(names, names[1:])
        ),
        seed=seed,
        ledger=False,
    )


def storm_job(duration: float, seed: int, shards: int) -> Rep:
    spec = storm_spec(duration, seed)
    start = _clock()
    # Looked up at call time so the tracer's wrapper is the one called.
    result = orchestrator.run_topology(spec, shards=shards, timeout=60.0)
    wall = _clock() - start
    counts: dict = {}
    for report in result.reports.values():
        for key, value in report["counts"].items():
            counts[key] = counts.get(key, 0) + value
    counts["events"] = result.events_fired
    counts["windows"] = result.windows
    counts["frames_forwarded"] = sum(
        wire["frames_forwarded"] for wire in result.wire.values()
    )
    sync = result.sync
    counts["null_grants"] = sum(shard.null_grants for shard in sync.shards)
    counts["egress_frames"] = sum(shard.egress_frames for shard in sync.shards)
    return Rep(
        packets=counts["returned"],
        wall_ns=wall,
        digest=stats_digest(result),
        counts=counts,
        sim={
            "grant_wait_s": sum(s.grant_wait_seconds for s in sync.shards),
            "wall_per_window_us": sync.wall_per_window * 1e6,
            "shards": result.shards,
        },
    )


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


class WorldWorkload(Workload):
    """Shared gate: the digest and packet count of every repetition are
    the same, and on :data:`GOLDEN_SEED` equal ``golden.json``."""

    def job(self, seed: int) -> Rep:
        raise NotImplementedError

    def repeat(self) -> Rep:
        return self.job(self.seed)

    def golden_rep(self, reps: list[Rep]) -> Rep:
        if self.seed == GOLDEN_SEED and reps:
            return reps[0]
        return self.job(GOLDEN_SEED)

    def fingerprint(self, rep: Rep) -> dict:
        return {"digest": rep.digest, "packets": rep.packets}

    def check(self, reps: list[Rep]) -> Check:
        from .golden import load_golden

        check = Check()
        for rep in reps[1:]:
            check.expect(
                self.fingerprint(rep) == self.fingerprint(reps[0]),
                f"repetitions disagree: {self.fingerprint(rep)} "
                f"vs {self.fingerprint(reps[0])}",
            )
        want = load_golden().get(self.scale, {}).get(self.name)
        got = self.fingerprint(self.golden_rep(reps))
        check.expect(
            got == want, f"golden mismatch on seed {GOLDEN_SEED}: {got} vs {want}"
        )
        return check


class RecvPath(WorldWorkload):
    name = "recv_path"

    def job(self, seed: int) -> Rep:
        return receive_job(self.size["frames"], seed)

    def check(self, reps: list[Rep]) -> Check:
        check = super().check(reps)
        for rep in reps:
            check.expect(
                rep.counts["overflow_drops"] == 0 and rep.counts["rx_drops"] == 0,
                "paced receive path dropped frames",
            )
        return check

    def paper_err_pct(self) -> float:
        """Mean absolute error of receiver ms/packet against table 6-8
        (60 frames a size, as the paper-table suite measures it)."""
        errors = [
            abs(
                receive_job(60, self.seed, frame_bytes=size).sim[
                    "recv_ms_per_packet"
                ]
                - paper
            )
            / paper
            for size, paper in PAPER_RECV_MS.items()
        ]
        return 100.0 * sum(errors) / len(errors)

    def end_to_end_extras(self, reps: list[Rep], factors: list[float]) -> dict:
        return {"paper_err_pct": summary([self.paper_err_pct()])}

    def layer_extras(self, traced) -> dict[str, float]:
        """The ledger's cost appears here and nowhere else: the same
        job with ``World(ledger=True)`` against the ledger off."""
        off, on = alternate(
            lambda: receive_job(self.size["frames"], self.seed),
            lambda: receive_job(self.size["frames"], self.seed, ledger=True),
        )
        return {
            "sim.ledger.overhead_pct": 100.0 * (on - off) / off,
            "paper_err_pct": self.paper_err_pct(),
        }


class BspBulk(WorldWorkload):
    name = "bsp_bulk"
    body_layer = "protocols.bsp"

    def job(self, seed: int) -> Rep:
        return bsp_job(self.size["bytes"], seed)

    def check(self, reps: list[Rep]) -> Check:
        check = super().check(reps)
        for rep in reps:
            check.expect(
                rep.counts["intact"] == 1, "received bytes differ from sent bytes"
            )
        return check

    def paper_err_pct(self, rep: Rep) -> float:
        rate = rep.sim["kbytes_per_s"]
        return 100.0 * abs(rate - PAPER_BSP_KBYTES_S) / PAPER_BSP_KBYTES_S

    def end_to_end_extras(self, reps: list[Rep], factors: list[float]) -> dict:
        return {"paper_err_pct": summary([self.paper_err_pct(reps[0])])}

    def layer_extras(self, traced) -> dict[str, float]:
        return {"paper_err_pct": self.paper_err_pct(self.job(self.seed))}


class FlowStormS1(WorldWorkload):
    name = "flow_storm_s1"
    shards = 1

    def job(self, seed: int) -> Rep:
        return storm_job(self.size["sim_seconds"], seed, self.shards)

    def layer_extras(self, traced) -> dict[str, float]:
        """Host time of the one-shard run over this shard count's, both
        untraced."""
        if self.shards == 1:
            return {"sim.orchestrator.speedup_vs_s1": 1.0}
        duration = self.size["sim_seconds"]
        one, many = alternate(
            lambda: storm_job(duration, self.seed, 1),
            lambda: storm_job(duration, self.seed, self.shards),
        )
        return {"sim.orchestrator.speedup_vs_s1": one / many}


class FlowStormS2(FlowStormS1):
    name = "flow_storm_s2"
    shards = 2

    def check(self, reps: list[Rep]) -> Check:
        """Also: the two-shard digest equals the one-shard run's."""
        check = super().check(reps)
        single = storm_job(self.size["sim_seconds"], self.seed, 1)
        check.expect(
            self.fingerprint(single) == self.fingerprint(reps[0]),
            f"shards=2 {self.fingerprint(reps[0])} != "
            f"shards=1 {self.fingerprint(single)}",
        )
        return check
