"""Crash-recoverable shards: typed failures, checkpoints, replay.

The acceptance bar is bitwise: a shard killed (or wedged) mid-run is
respawned from its fork-based checkpoint, the supervisor replays the
journaled grants, and the final :func:`~repro.difftest.sharding.run_digest`
equals the same scenario run with no fault at all.  Failure *injection*
is deterministic (the worker kills or hangs itself at an exact window
via a hazard spec — after computing and checkpointing the window,
before replying), so these tests pick their crash sites instead of
racing signals.  :func:`check_kill_site` is the whole property for one
site; tier-1 samples it, ``tests/difftest/test_chaos_recovery.py``
sweeps the full product.
"""

import dataclasses
import functools
import multiprocessing
import multiprocessing.connection
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.topologies import flow_storm_topology
from repro.difftest.sharding import run_digest
from repro.sim.orchestrator import RecoveryConfig, run_topology
from repro.sim.shard import (
    LocalShard,
    ProcessShard,
    ShardDiedError,
    ShardTimeoutError,
    _accept_with_timeout,
    _await_promotion,
    _PidHandle,
)
from repro.sim.topology import SegmentSpec

from .test_shard import ping_builder, ping_spec

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based checkpoints need os.fork"
)

KILL_SITE_INTERVALS = (None, 1, 2, 3, 5)


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


@functools.lru_cache(maxsize=None)
def kill_site_baseline() -> tuple[str, int]:
    """(digest, windows) of the fault-free run every kill site must equal."""
    result = run_topology(ping_spec(2, frames=6, seed=4), shards=2)
    return run_digest(result), result.windows


def check_kill_site(victim: int, kill: int, interval: int | None) -> None:
    """One kill site, the whole recovery contract: shard ``victim`` dies
    holding window ``kill``'s reply; the run must finish bitwise equal to
    the fault-free one, from exactly the checkpoint the interval implies,
    without ever waiting out a lost promotion (that costs 5 s)."""
    digest, _ = kill_site_baseline()
    recovered = run_topology(
        ping_spec(2, frames=6, seed=4),
        shards=2,
        recovery=RecoveryConfig(checkpoint_interval=interval, recv_timeout=10.0),
        hazards={victim: {"die_at_window": kill}},
    )
    site = f"shard {victim} killed at window {kill}, interval {interval}"
    assert run_digest(recovered) == digest, site
    (record,) = recovered.restarts
    resumed = (kill // interval) * interval if interval else 0
    assert record["shard"] == victim and record["window"] == kill, site
    assert record["resumed_from"] == resumed, site
    assert record["checkpointed"] is (resumed > 0), site
    assert record["replayed"] == kill - resumed, site
    assert record["attempts"] == 1, site
    assert record["wall_seconds"] < 2.0, site
    assert recovered.sync.shards[victim].restarts == 1, site


class TestTypedFailures:
    def test_dead_worker_raises_typed_error(self):
        spec = ping_spec(2)
        shard = ProcessShard(
            spec, [0], shard_id=3, hazard={"die_at_window": 2}
        )
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

    def test_wedged_worker_raises_timeout_and_close_reaps(self):
        spec = ping_spec(2)
        shard = ProcessShard(
            spec,
            [0],
            shard_id=1,
            timeout=0.2,
            hazard={"wedge_at_window": 1, "wedge_seconds": 60.0},
        )
        try:
            shard.step_send(0.0, [])
            with pytest.raises(ShardTimeoutError) as excinfo:
                shard.step_recv()
            assert excinfo.value.shard_id == 1
            assert excinfo.value.window_index == 1
            assert excinfo.value.last_ack == 0
        finally:
            # close() must reap the (still sleeping) child promptly —
            # the _failed fast path skips the polite exit handshake.
            shard.close()
        assert not shard._process.is_alive()

    def test_untimed_recv_still_detects_eof(self):
        spec = ping_spec(2)
        shard = ProcessShard(spec, [0], hazard={"die_at_window": 1})
        try:
            shard.step_send(0.0, [])
            with pytest.raises(ShardDiedError):
                shard.step_recv()
        finally:
            shard.close()


def buggy_builder(ctx, **options):
    raise KeyError("builder bug")


def bad_report_builder(ctx, **options):
    ping_builder(ctx, **options)
    ctx.report("boom", lambda: {}["report bug"])


class TestWorkerExceptions:
    """A Python exception inside a worker is deterministic: it must
    surface as itself (``shards=1`` simply raises it), never as a mute
    ``ShardDiedError`` — and the supervisor must not revive for it."""

    @pytest.mark.parametrize(
        "builder, text",
        [(buggy_builder, "builder bug"), (bad_report_builder, "report bug")],
        ids=["build", "collect"],
    )
    @pytest.mark.parametrize(
        "recovery",
        [None, RecoveryConfig(checkpoint_interval=2, recv_timeout=10.0)],
        ids=["unsupervised", "supervised"],
    )
    def test_worker_exception_surfaces_and_is_not_retried(
        self, builder, text, recovery, monkeypatch
    ):
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
        revivals = []
        monkeypatch.setattr(
            ProcessShard, "recover", lambda self, grants: revivals.append(self)
        )
        with pytest.raises(RuntimeError, match=f"KeyError.*{text}") as excinfo:
            run_topology(spec, shards=2, recovery=recovery)
        assert not isinstance(excinfo.value, ShardDiedError)
        assert "shard 1 failed at window" in str(excinfo.value)
        assert revivals == []


@needs_fork
class TestPromotionHandshake:
    def test_checkpoint_child_whose_worker_is_already_dead_offers_at_once(self):
        # The child must wait on the pid its worker had *before* the
        # fork.  Handing it a pid that is not its parent is the worker
        # that died before the child was first scheduled: it used to
        # record whoever its parent had become and park forever.
        authkey = b"promotion-test"
        listener = multiprocessing.connection.Listener(
            family="AF_UNIX", authkey=authkey
        )
        settings = {"promote_address": listener.address, "authkey": authkey}
        ours, theirs = multiprocessing.Pipe()
        foreign_pid = os.getppid()
        child = os.fork()
        if child == 0:
            try:
                _await_promotion(theirs, settings, foreign_pid, 7)
            finally:
                os._exit(0)
        try:
            theirs.close()
            conn = _accept_with_timeout(listener, 2.0)
            assert conn is not None, "frozen child never offered itself"
            assert conn.poll(2.0)
            assert conn.recv() == ("promoted", 7, child)
            conn.close()
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            listener.close()
            ours.close()

    def drive(self, shard, windows):
        """Grant ``windows`` windows, recovering whenever the shard
        dies; returns (journal, replies, resume windows)."""
        grants, replies, resumes = [], [], []
        for window in range(1, windows + 1):
            grants.append((window * 2e-3, []))
            shard.step_send(*grants[-1])
            try:
                replies.append(shard.step_recv())
            except ShardDiedError:
                reply, resumed = shard.recover(grants)
                replies.append(reply)
                resumes.append(resumed)
        return grants, replies, resumes

    def test_pending_reply_promotion_adopts_the_promoted_pid(self):
        # Dying *at* a checkpoint window: the only process that knows
        # the new checkpoint's pid is the one that just died with the
        # reply.  The supervisor must adopt the pid the hello carries —
        # not a stale one — or it can never reap the promoted worker.
        spec = ping_spec(2, frames=8, seed=4)
        shard = ProcessShard(
            spec, [1], shard_id=1, timeout=10.0,
            checkpoint_interval=2, hazard={"die_at_window": 4},
        )
        oracle = LocalShard(spec, [1])
        try:
            grants, replies, resumes = self.drive(shard, 6)
            assert resumes == [4]
            for grant, reply in zip(grants, replies):
                oracle.step_send(*grant)
                assert reply[:4] == oracle.step_recv()[:4]
            promoted = shard._process
            assert isinstance(promoted, _PidHandle)
            assert promoted.is_alive()
        finally:
            shard.close()
        assert not promoted.is_alive()

    def test_death_after_first_checkpoint_promotes_and_leaves_no_offer(self):
        # No reply ever told the supervisor a checkpoint exists; it
        # knows the interval, so it knows the in-flight window forked
        # one.  Respawning instead would strand the frozen child on the
        # listener as a stale offer for the *next* recovery to adopt.
        spec = ping_spec(2, frames=8, seed=4)
        shard = ProcessShard(
            spec, [1], shard_id=1, timeout=10.0,
            checkpoint_interval=3, hazard={"die_at_window": 3},
        )
        try:
            _, _, resumes = self.drive(shard, 4)
            assert resumes == [3]
            assert _accept_with_timeout(shard._listener, 0.1) is None
        finally:
            shard.close()

    def test_close_dismisses_the_checkpoint_child_of_a_wedged_worker(self):
        # close() has to kill a wedged worker, which orphans its frozen
        # child.  The supervisor was never told that child's pid (and
        # forked processes keep the listening socket open), so the
        # child must see the listener's path go and leave by itself —
        # promptly, or it also pins close() on the worker's sentinel.
        spec = ping_spec(2, frames=8, seed=4)
        shard = ProcessShard(
            spec, [1], shard_id=1, timeout=0.3, checkpoint_interval=2,
            hazard={"wedge_at_window": 4, "wedge_seconds": 60.0},
        )
        try:
            for window in range(1, 4):
                shard.step_send(window * 2e-3, [])
                shard.step_recv()
            shard.step_send(8e-3, [])
            with pytest.raises(ShardTimeoutError):
                shard.step_recv()
            frozen = [_PidHandle(pid) for pid in children_of(shard._process.pid)]
            assert len(frozen) == 1 and frozen[0].is_alive()
        finally:
            started = time.monotonic()
            shard.close()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f} s"
        frozen[0].join(timeout=2.0)
        assert not frozen[0].is_alive(), "checkpoint child outlived close()"

    def test_death_before_any_checkpoint_window_respawns_without_waiting(self):
        spec = ping_spec(2, frames=8, seed=4)
        shard = ProcessShard(
            spec, [1], shard_id=1, timeout=10.0,
            checkpoint_interval=3, hazard={"die_at_window": 2},
        )
        try:
            started = time.monotonic()
            _, _, resumes = self.drive(shard, 3)
            assert resumes == [0]
            assert time.monotonic() - started < 2.0
        finally:
            shard.close()


@needs_fork
class TestRecovery:
    @given(
        victim=st.integers(0, 1),
        kill=st.integers(1, 23),
        interval=st.sampled_from(KILL_SITE_INTERVALS),
    )
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    def test_sampled_kill_sites_recover_bitwise(self, victim, kill, interval):
        assert kill_site_baseline()[1] == 23   # the range above is every window
        check_kill_site(victim, kill, interval)

    def test_kill_recovers_from_checkpoint_bitwise(self):
        spec = ping_spec(2, frames=8, seed=4)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=4, recv_timeout=10.0),
            hazards={1: {"die_at_window": 7}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.restarts
        assert record["shard"] == 1
        assert record["reason"] == "died"
        assert record["resumed_from"] == 4
        assert record["checkpointed"] is True
        assert record["replayed"] == 3
        assert record["attempts"] == 1

    def test_wedge_recovers_from_checkpoint_bitwise(self):
        spec = ping_spec(2, frames=8, seed=4)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=4, recv_timeout=0.3),
            hazards={0: {"wedge_at_window": 6, "wedge_seconds": 60.0}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.restarts
        assert record["shard"] == 0
        assert record["reason"] == "timed out"
        assert record["resumed_from"] == 4

    def test_wedge_without_checkpoints_recovers_by_full_replay(self):
        spec = ping_spec(2, frames=6, seed=9)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=None, recv_timeout=0.3),
            hazards={1: {"wedge_at_window": 4, "wedge_seconds": 60.0}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.restarts
        assert record["reason"] == "timed out"
        assert (record["resumed_from"], record["replayed"]) == (0, 4)

    def test_no_checkpoint_recovers_by_full_replay(self):
        spec = ping_spec(2, frames=6, seed=9)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(
                checkpoint_interval=None, recv_timeout=10.0
            ),
            hazards={1: {"die_at_window": 5}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.restarts
        assert record["resumed_from"] == 0
        assert record["checkpointed"] is False
        assert record["replayed"] == 5

    def test_kill_at_checkpoint_window_uses_pending_reply(self):
        # Dying exactly at a checkpoint window exercises the race the
        # promotion handshake exists for: the frozen child's state
        # already includes the window whose reply never got sent, so
        # nothing at all is replayed.
        spec = ping_spec(2, frames=8, seed=4)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=3, recv_timeout=10.0),
            hazards={1: {"die_at_window": 9}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.restarts
        assert record["resumed_from"] == 9
        assert record["replayed"] == 0

    def test_close_does_not_wait_on_a_promoted_zombie(self):
        # A promoted checkpoint child is an orphan: after it exits it
        # is a zombie until PID 1 reaps it, and ``kill(pid, 0)`` cannot
        # tell that from alive — close() used to poll it for seconds.
        spec = ping_spec(2, frames=8, seed=4)
        shard = ProcessShard(
            spec,
            [1],
            shard_id=1,
            timeout=10.0,
            checkpoint_interval=2,
            hazard={"die_at_window": 5},
        )
        grants = []
        try:
            for window in range(1, 6):
                grants.append((window * 2e-3, []))
                shard.step_send(*grants[-1])
                try:
                    shard.step_recv()
                except ShardDiedError:
                    _, resumed_from = shard.recover(grants)
            assert resumed_from == 4
            promoted = shard._process.pid
        finally:
            started = time.monotonic()
            shard.close()
            elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"close() took {elapsed:.2f} s"
        assert not shard._process.is_alive()
        try:
            with open(f"/proc/{promoted}/stat", "rb") as stat:
                state = stat.read().rpartition(b")")[2].split()[0]
        except OSError:
            state = b"X"   # already reaped (or no procfs to ask)
        assert state in (b"Z", b"X"), "promoted worker still running"

    def test_restart_budget_exhausted_reraises(self):
        spec = ping_spec(2, frames=6)
        with pytest.raises(ShardDiedError):
            run_topology(
                spec,
                shards=2,
                recovery=RecoveryConfig(
                    checkpoint_interval=4, recv_timeout=10.0, max_restarts=0
                ),
                hazards={1: {"die_at_window": 5}},
            )

    def test_death_between_last_reply_and_collect_recovers(self, monkeypatch):
        # The one supervised wait no hazard reaches: every window is
        # acknowledged, then the worker dies before it is asked for
        # its reports.  Killed from here, on the way into collect().
        spec = ping_spec(2, frames=6, seed=4)
        clean = run_topology(spec, shards=2)
        collect, killed = ProcessShard.collect, []

        def collect_from_a_dead_worker(shard):
            if shard.shard_id == 1 and not killed:
                killed.append(shard._process.pid)
                shard._process.kill()
                while shard._process.is_alive():   # not join(): the frozen
                    time.sleep(0.002)              # child holds the sentinel
            return collect(shard)

        monkeypatch.setattr(ProcessShard, "collect", collect_from_a_dead_worker)
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=5, recv_timeout=10.0),
        )
        assert len(killed) == 1
        assert run_digest(recovered) == run_digest(clean)
        (record,) = recovered.restarts
        assert record["window"] == clean.windows == 23
        assert (record["resumed_from"], record["replayed"]) == (20, 3)
        assert record["horizon"] == 0.0

    @pytest.mark.parametrize("max_restarts", [1, 2])
    def test_second_death_during_replay_spends_the_restart_budget(
        self, max_restarts, monkeypatch
    ):
        # The revived worker dies again while replaying: the failure
        # comes out of recover() itself and costs a second attempt
        # (after the backoff) — or the run, when the budget is one.
        spec = ping_spec(2, frames=6, seed=9)
        spawn, spawned = ProcessShard._spawn, []

        def spawn_one_doomed_revival(shard, hazard=None):
            spawned.append(shard.shard_id)
            if spawned.count(1) == 2:
                hazard = {"die_at_window": 3}
            spawn(shard, hazard)

        monkeypatch.setattr(ProcessShard, "_spawn", spawn_one_doomed_revival)
        recovery = RecoveryConfig(
            checkpoint_interval=None, recv_timeout=10.0,
            max_restarts=max_restarts,
        )

        def run():
            return run_topology(
                spec, shards=2, recovery=recovery,
                hazards={1: {"die_at_window": 5}},
            )

        if max_restarts == 1:
            with pytest.raises(ShardDiedError) as excinfo:
                run()
            assert excinfo.value.window_index == 3
            return
        recovered = run()
        del spawned[:]
        monkeypatch.undo()
        assert run_digest(recovered) == run_digest(run_topology(spec, shards=2))
        (record,) = recovered.restarts
        assert record["attempts"] == 2
        assert (record["resumed_from"], record["replayed"]) == (0, 5)
        assert recovered.sync.shards[1].restarts == 1

    def test_unsupervised_failure_propagates(self):
        spec = ping_spec(2, frames=6)
        with pytest.raises(ShardDiedError):
            run_topology(spec, shards=2, hazards={1: {"die_at_window": 5}})

    def test_restart_surfaces_as_telemetry_alert(self):
        spec = dataclasses.replace(
            ping_spec(2, frames=8, seed=4), telemetry=True
        )
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=4, recv_timeout=10.0),
            hazards={0: {"die_at_window": 6}},
        )
        alerts = [
            alert
            for alert in recovered.telemetry.alerts
            if alert.rule == "shard_restart"
        ]
        assert len(alerts) == 1
        assert alerts[0].host == "shard:0"
        assert alerts[0].values["resumed_from"] == 4.0

    def test_death_before_the_first_fork_respawns_without_waiting(
        self, monkeypatch, tmp_path
    ):
        # The worker dies inside window 8's body — the first checkpoint
        # window — before it gets to fork.  No frozen child exists, so
        # no offer can come: the supervisor must respawn at once, not
        # wait out PROMOTE_TIMEOUT (5 s) on the listener.
        spec = flow_storm_topology(
            segments=2, seed=0, duration=0.05, flows=16, cache_size=8
        )
        oracle = run_digest(run_topology(spec, shards=1))
        supervisor, marker = os.getpid(), str(tmp_path / "died")
        step = LocalShard.step

        def step_dying_once(shard, horizon, frames):
            if shard.window == 8 and os.getpid() != supervisor:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(13)
            return step(shard, horizon, frames)

        monkeypatch.setattr(LocalShard, "step", step_dying_once)
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(checkpoint_interval=8, recv_timeout=10.0),
        )
        assert os.path.exists(marker)
        (record,) = recovered.restarts
        assert record["window"] == 8
        assert (record["resumed_from"], record["checkpointed"]) == (0, False)
        assert record["wall_seconds"] < 1.0, record
        assert run_digest(recovered) == oracle

    def test_hazard_not_replayed_after_respawn(self):
        # A fresh respawn (no checkpoint) replays through the original
        # crash window; the hazard must have been stripped or the shard
        # would die forever.
        spec = ping_spec(2, frames=6, seed=9)
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(
                checkpoint_interval=None, recv_timeout=10.0, max_restarts=2
            ),
            hazards={1: {"die_at_window": 3}},
        )
        assert len(recovered.restarts) == 1
