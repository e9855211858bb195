"""Sharded execution: partitioning, forwarding, and bitwise equality.

The headline invariant: ``run_topology(spec, shards=N)`` is bitwise
identical to ``run_topology(spec, shards=1)`` for every N — same
per-host counters (floats included), same packet spans, same window
count.  The heavyweight sweep lives in the difftest suite; here small
ping topologies pin the mechanism.

A worker that dies or hangs fails the run with a typed error, and every
worker is reaped.  Those tests make a worker fail by monkeypatching
:meth:`LocalShard.step` before the worker is forked, so the failure
happens inside the real window body of the real worker process.
"""

import dataclasses
import math
import multiprocessing
import os
import time

import pytest

from repro.__main__ import EXIT_SHARD_DIED, EXIT_SHARD_TIMEOUT, main
from repro.bench.topologies import flow_storm_topology
from repro.core import PFIoctl, compile_expr, word
from repro.difftest.sharding import outcome_digest, run_digest
from repro.sim import Ioctl, Open, Read, Sleep, Write
from repro.sim.orchestrator import run_topology
from repro.sim.shard import (
    LocalShard,
    ProcessShard,
    ShardDiedError,
    ShardTimeoutError,
    partition,
)
from repro.sim.topology import BridgeSpec, SegmentSpec, TopologySpec

TEST_TYPE = 0x0C47


def ping_builder(ctx, *, frames=4, gap=2e-3, cross_target=None):
    """A receiver reading everything of TEST_TYPE, and a sender pacing
    ``frames`` local frames (plus one bridged frame each, when aimed)."""
    receiver = ctx.host("rx")
    receiver.install_packet_filter()
    sender = ctx.host("tx")
    sender.install_packet_filter()

    def read_loop():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(6) == TEST_TYPE))
        while True:
            yield Read(fd)

    def send():
        fd = yield Open("pf")
        yield Sleep(0.005)
        for _ in range(frames):
            yield Write(fd, sender.link.frame(
                receiver.address, sender.address, TEST_TYPE, b"local",
            ))
            if cross_target is not None:
                yield Write(fd, sender.link.frame(
                    ctx.address_of(cross_target), sender.address,
                    TEST_TYPE, b"cross",
                ))
            yield Sleep(gap)

    receiver.spawn("reader", read_loop())
    sender.spawn("sender", send())
    ctx.report("received", lambda: receiver.kernel.stats.frames_received)


def ping_spec(segments=2, *, frames=4, seed=0, delay=2e-3) -> TopologySpec:
    """A chain of ping segments, each aiming its cross traffic at the
    next around the chain (callable builders: fork-based shards only)."""
    names = [f"lan{i}" for i in range(segments)]
    specs = []
    for index, name in enumerate(names):
        cross = names[(index + 1) % segments] if segments > 1 else None
        specs.append(SegmentSpec(
            name, ping_builder, {"frames": frames, "cross_target": cross},
        ))
    return TopologySpec(
        segments=tuple(specs),
        bridges=tuple(
            BridgeSpec(names[i], names[i + 1], delay=delay)
            for i in range(segments - 1)
        ),
        seed=seed,
    )


class TestPartition:
    def test_round_robin(self):
        assert partition(5, 2) == [[0, 2, 4], [1, 3]]

    def test_more_shards_than_segments(self):
        assert partition(2, 8) == [[0], [1]]

    def test_single_shard_owns_everything(self):
        assert partition(3, 1) == [[0, 1, 2]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition(3, 0)


class TestSingleProcess:
    def test_no_bridge_topology_runs_to_quiescence(self):
        spec = TopologySpec(
            segments=(SegmentSpec("solo", ping_builder, {"frames": 3}),),
            seed=1,
        )
        result = run_topology(spec)
        assert result.windows == 1
        assert result.reports["solo"]["received"] == 3

    def test_cross_traffic_is_forwarded_and_delivered(self):
        frames = 4
        result = run_topology(ping_spec(2, frames=frames))
        for name in ("lan0", "lan1"):
            # Each receiver reads its own local frames plus the bridged
            # ones from the other segment.
            assert result.reports[name]["received"] == 2 * frames
        # Cross frames crossed the one bridge once in each direction.
        forwarded = sum(w["frames_forwarded"] for w in result.wire.values())
        assert forwarded == 2 * frames

    def test_multi_hop_forwarding(self):
        # The last segment's cross traffic re-crosses the whole chain.
        frames = 3
        result = run_topology(ping_spec(3, frames=frames))
        for name in ("lan0", "lan1", "lan2"):
            assert result.reports[name]["received"] == 2 * frames
        # lan2 -> lan0 takes two hops, so 4 one-hop crossings plus
        # 2 hops for each of lan2's frames.
        forwarded = sum(w["frames_forwarded"] for w in result.wire.values())
        assert forwarded == 4 * frames

    def test_host_names_disjoint_across_segments(self):
        result = run_topology(ping_spec(2))
        assert sorted(result.stats) == [
            "lan0:rx", "lan0:tx", "lan1:rx", "lan1:tx",
        ]


class TestPartitionIndependence:
    def test_two_shards_match_the_oracle_bitwise(self):
        spec = ping_spec(2, frames=5, seed=11)
        one = run_topology(spec, shards=1)
        two = run_topology(spec, shards=2)
        assert two.shards == 2
        assert one.stats == two.stats          # dataclass equality: exact
        assert one.total == two.total
        assert one.windows == two.windows
        assert one.events_fired == two.events_fired
        assert outcome_digest(one) == outcome_digest(two)
        assert run_digest(one) == run_digest(two)

    def test_three_segments_any_shard_count(self):
        spec = ping_spec(3, frames=3, seed=5)
        digests = {
            shards: run_digest(run_topology(spec, shards=shards))
            for shards in (1, 2, 3)
        }
        assert len(set(digests.values())) == 1

    def test_shards_capped_at_segment_count(self):
        result = run_topology(ping_spec(2, frames=2), shards=8)
        assert result.shards == 2

    def test_repeat_runs_are_bitwise_identical(self):
        spec = ping_spec(2, frames=4, seed=1)
        assert run_digest(run_topology(spec)) == run_digest(
            run_topology(spec)
        )


class TestSpawnStartMethod:
    """``run_topology`` picks the start method from the platform, so the
    spawn path (no inherited memory: the spec crosses by pickle, the
    builders by import path) is driven at the handle."""

    def test_spawned_worker_matches_the_in_process_shard(self):
        spec = flow_storm_topology(
            segments=2, seed=0, duration=0.05, flows=16, cache_size=8
        )
        local = LocalShard(spec, [0])
        spawned = ProcessShard(
            spec, [0], context=multiprocessing.get_context("spawn"),
            timeout=60.0,
        )
        try:
            for horizon in (0.0, 0.01, 0.02, 0.04, 0.08):
                local.step_send(horizon, [])
                spawned.step_send(horizon, [])
                assert spawned.step_recv() == local.step_recv()
            (ours,), (theirs,) = local.collect(), spawned.collect()
            assert theirs.stats == ours.stats
            assert theirs.events_fired == ours.events_fired > 0
        finally:
            spawned.close()

    def test_spawn_refuses_a_bare_callable_builder(self):
        with pytest.raises(ValueError, match="string builder references"):
            ProcessShard(
                ping_spec(2), [0],
                context=multiprocessing.get_context("spawn"),
            )


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
)


def worker_cpus(shard: ProcessShard) -> set[int]:
    """The CPU set of ``shard``'s live worker, once it has answered a
    window (it pins itself before serving its first command)."""
    shard.step_send(2e-3, [])
    shard.step_recv()
    return os.sched_getaffinity(shard._process.pid)


@needs_affinity
class TestWorkerPlacement:
    """Each worker pins itself to one CPU of the set it inherited, by
    shard id, so the shards of a window run at the same time instead of
    queueing behind the supervisor that woke them."""

    @pytest.mark.skipif(
        hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
        reason="needs two usable CPUs",
    )
    def test_two_workers_get_two_distinct_single_cpus(self):
        parent = os.sched_getaffinity(0)
        spec = ping_spec(2)
        shards = [
            ProcessShard(spec, [index], shard_id=index, timeout=10.0)
            for index in (0, 1)
        ]
        try:
            placed = [worker_cpus(shard) for shard in shards]
        finally:
            for shard in shards:
                shard.close()
        assert all(len(cpus) == 1 and cpus <= parent for cpus in placed)
        assert placed[0] != placed[1]
        assert os.sched_getaffinity(0) == parent   # the caller is not pinned

    def test_a_single_cpu_parent_leaves_its_worker_there(self):
        parent = os.sched_getaffinity(0)
        only = {max(parent)}
        os.sched_setaffinity(0, only)
        try:
            shard = ProcessShard(ping_spec(2), [1], shard_id=1, timeout=10.0)
            try:
                assert worker_cpus(shard) == only
            finally:
                shard.close()
        finally:
            os.sched_setaffinity(0, parent)


def children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from procfs."""
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                ppid = stat.read().rpartition(b")")[2].split()[1]
        except OSError:
            continue
        if int(ppid) == pid:
            children.append(int(entry))
    return children


def fail_in_workers(monkeypatch, window: int, fault: str, segment=None):
    """Make a forked worker fail inside the body of its window
    ``window``: exit at once (``fault="die"``) or hang for a minute
    (``"wedge"``).  ``segment`` limits it to the worker owning that
    segment; the calling process is never touched."""
    supervisor, step = os.getpid(), LocalShard.step

    def failing_step(shard, horizon, frames):
        if (
            shard.window == window
            and os.getpid() != supervisor
            and (segment is None or segment in shard.runtimes)
        ):
            if fault == "die":
                os._exit(13)
            time.sleep(60.0)
        return step(shard, horizon, frames)

    monkeypatch.setattr(LocalShard, "step", failing_step)


class TestTypedFailures:
    """A dead worker and a wedged one each fail with their own typed
    error, naming the shard and where the run stood, and ``close()``
    reaps the worker either way."""

    def test_dead_worker_raises_typed_error(self, monkeypatch):
        fail_in_workers(monkeypatch, 2, "die")
        shard = ProcessShard(ping_spec(2), [0], shard_id=3)
        try:
            shard.step_send(0.0, [])
            shard.step_recv()
            shard.step_send(0.002, [])
            with pytest.raises(ShardDiedError) as excinfo:
                shard.step_recv()
            error = excinfo.value
            assert error.shard_id == 3
            assert error.window_index == 2
            assert error.last_ack == 1
        finally:
            shard.close()
        assert not shard._process.is_alive()

    def test_wedged_worker_raises_timeout_and_close_reaps(self, monkeypatch):
        fail_in_workers(monkeypatch, 1, "wedge")
        shard = ProcessShard(ping_spec(2), [0], shard_id=1, timeout=0.2)
        try:
            shard.step_send(0.0, [])
            with pytest.raises(ShardTimeoutError) as excinfo:
                shard.step_recv()
            assert excinfo.value.shard_id == 1
            assert excinfo.value.window_index == 1
            assert excinfo.value.last_ack == 0
        finally:
            # close() must reap the (still sleeping) child promptly —
            # a failed shard is not asked to exit politely.
            shard.close()
        assert not shard._process.is_alive()

    def test_untimed_recv_still_detects_eof(self, monkeypatch):
        fail_in_workers(monkeypatch, 1, "die")
        shard = ProcessShard(ping_spec(2), [0])
        try:
            shard.step_send(0.0, [])
            with pytest.raises(ShardDiedError):
                shard.step_recv()
        finally:
            shard.close()

    def test_death_before_collect_raises_typed_error(self):
        shard = ProcessShard(ping_spec(2), [0], shard_id=2, timeout=10.0)
        try:
            shard.step_send(0.0, [])
            shard.step_recv()
            shard._process.kill()
            shard._process.join()
            with pytest.raises(ShardDiedError) as excinfo:
                shard.collect()
            assert (excinfo.value.shard_id, excinfo.value.last_ack) == (2, 1)
        finally:
            shard.close()

    def test_run_topology_raises_when_a_worker_dies(self, monkeypatch):
        # Below the CLI: the orchestrator lets the typed error through
        # as itself and still reaps the surviving worker.
        before = set(children_of(os.getpid()))
        fail_in_workers(monkeypatch, 5, "die", segment="lan1")
        with pytest.raises(ShardDiedError) as excinfo:
            run_topology(ping_spec(2, frames=6), shards=2)
        error = excinfo.value
        assert (error.shard_id, error.window_index, error.last_ack) == (
            1, 5, 4
        )
        assert set(children_of(os.getpid())) <= before

    @pytest.mark.parametrize(
        "fault, flags, code",
        [
            ("die", [], EXIT_SHARD_DIED),
            ("wedge", ["--timeout", "0.3"], EXIT_SHARD_TIMEOUT),
        ],
        ids=["died", "timed-out"],
    )
    def test_run_exits_typed_and_reaps_every_worker(
        self, fault, flags, code, monkeypatch, capsys
    ):
        # Through the front door: shard 1 fails inside window 8's body;
        # the run stops with the failure's own exit code and one line,
        # and leaves no worker behind.
        before = set(children_of(os.getpid()))
        fail_in_workers(monkeypatch, 8, fault, segment="lan1")
        argv = ["run", "flow_storm", "--shards", "2", "--duration", "0.05"]
        assert main([*argv, *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shard 1 ")
        assert "at window 8 (last acknowledged window 7)" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert set(children_of(os.getpid())) <= before


def buggy_builder(ctx, **options):
    raise KeyError("builder bug")


def bad_report_builder(ctx, **options):
    ping_builder(ctx, **options)
    ctx.report("boom", lambda: {}["report bug"])


class TestWorkerExceptions:
    """A Python exception inside a worker surfaces as itself
    (``shards=1`` simply raises it), never as a mute
    ``ShardDiedError``."""

    @pytest.mark.parametrize(
        "builder, text",
        [(buggy_builder, "builder bug"), (bad_report_builder, "report bug")],
        ids=["build", "collect"],
    )
    def test_worker_exception_surfaces_as_itself(self, builder, text):
        good = ping_spec(2, frames=2)
        spec = dataclasses.replace(
            good,
            segments=(
                good.segments[0],
                SegmentSpec("lan1", builder, {"frames": 2}),
            ),
        )
        with pytest.raises(KeyError, match=text):
            run_topology(spec, shards=1)
        with pytest.raises(RuntimeError, match=f"KeyError.*{text}") as excinfo:
            run_topology(spec, shards=2)
        assert not isinstance(excinfo.value, ShardDiedError)
        assert "shard 1 failed at window" in str(excinfo.value)


class TestDeadlines:
    """A reply deadline that cannot work is refused where it is given,
    before any worker exists — not mid-run, where a negative ``poll``
    timeout blocks forever and a NaN raises from deep inside the reply
    wait."""

    @pytest.mark.parametrize("seconds", [-1.0, 0.0, math.nan, math.inf], ids=str)
    def test_bad_reply_deadlines_are_refused_at_construction(self, seconds):
        before = set(children_of(os.getpid()))
        with pytest.raises(ValueError, match="timeout"):
            ProcessShard(ping_spec(2), [0], timeout=seconds)
        with pytest.raises(ValueError, match="timeout"):
            run_topology(ping_spec(2), shards=2, timeout=seconds)
        assert set(children_of(os.getpid())) <= before, "a worker was started"
