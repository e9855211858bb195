"""Crash-recoverable shards: typed failures, respawn, replay.

The acceptance bar is bitwise: a shard killed (or wedged) mid-run is
respawned, the supervisor replays the whole journal of grants, and the
final :func:`~repro.difftest.sharding.run_digest` equals the same
scenario run with no fault at all.  Failure *injection* is
deterministic (the worker kills or hangs itself at an exact window via
a hazard spec — after computing the window, before replying), so these
tests pick their crash sites instead of racing signals.
:func:`check_kill_site` is the whole property for one site; tier-1
samples it, ``tests/difftest/test_chaos_recovery.py`` sweeps the full
product.
"""

import dataclasses
import functools
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.topologies import flow_storm_topology
from repro.difftest.sharding import alert_timeline_digest, run_digest
from repro.sim.orchestrator import RecoveryConfig, run_topology
from repro.sim.shard import (
    LocalShard,
    ProcessShard,
    ShardDiedError,
    ShardTimeoutError,
)
from repro.sim.topology import SegmentSpec

from .test_shard import ping_builder, ping_spec

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="callable builders need fork-started workers",
)

#: The two ways a kill site fails a shard, and the reply deadline each
#: runs under: a dead worker is seen at once (EOF), a wedged one only
#: once its reply is overdue.
KILL_SITE_FAULTS = {"die_at_window": 10.0, "wedge_at_window": 0.3}


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


def check_kill_site(victim: int, kill: int, fault: str) -> None:
    """One kill site, the whole recovery contract: shard ``victim`` dies
    or wedges (``fault``) holding window ``kill``'s reply; the run must
    finish bitwise equal to the fault-free one after one respawn."""
    digest, _ = kill_site_baseline()
    recovered = run_topology(
        ping_spec(2, frames=6, seed=4),
        shards=2,
        recovery=RecoveryConfig(recv_timeout=KILL_SITE_FAULTS[fault]),
        hazards={victim: {fault: kill, "wedge_seconds": 60.0}},
    )
    site = f"shard {victim} {fault} {kill}"
    assert run_digest(recovered) == digest, site
    (record,) = recovered.sync.restarts
    assert record["shard"] == victim and record["window"] == kill, site
    reason = "died" if fault == "die_at_window" else "timed out"
    assert record["reason"] == reason, site
    assert record["attempts"] == 1, site
    assert recovered.sync.shards[victim].replay_seconds > 0.0, site


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
        [None, RecoveryConfig(recv_timeout=10.0)],
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


class TestDeadlines:
    """A reply deadline or restart budget that cannot work is refused
    where it is given, before any worker exists — not mid-run, where a
    negative ``poll`` timeout blocks forever and a NaN raises from deep
    inside the reply wait."""

    BAD = [-1.0, 0.0, math.nan, math.inf]

    @pytest.mark.parametrize("seconds", BAD, ids=str)
    def test_bad_reply_deadlines_are_refused_at_construction(self, seconds):
        before = set(children_of(os.getpid()))
        with pytest.raises(ValueError, match="recv_timeout"):
            RecoveryConfig(recv_timeout=seconds)
        with pytest.raises(ValueError, match="timeout"):
            ProcessShard(ping_spec(2), [0], timeout=seconds)
        with pytest.raises(ValueError, match="timeout"):
            run_topology(ping_spec(2), shards=2, timeout=seconds)
        assert set(children_of(os.getpid())) <= before, "a worker was started"

    @pytest.mark.parametrize("max_restarts", [0, -2])
    def test_restart_budget_below_one_is_refused(self, max_restarts):
        with pytest.raises(ValueError, match="max_restarts"):
            RecoveryConfig(max_restarts=max_restarts)


@needs_fork
class TestRecovery:
    @given(
        victim=st.integers(0, 1),
        kill=st.integers(1, 23),
        fault=st.sampled_from(sorted(KILL_SITE_FAULTS)),
    )
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    def test_sampled_kill_sites_recover_bitwise(self, victim, kill, fault):
        assert kill_site_baseline()[1] == 23   # the range above is every window
        check_kill_site(victim, kill, fault)

    def test_supervised_workers_never_fork(self, monkeypatch):
        # Recovery is respawn and replay: a worker's only process is
        # itself, at every window of a supervised run.
        spec = ping_spec(2, frames=8, seed=4)
        step_recv, checked = ProcessShard.step_recv, []

        def step_recv_checking_children(shard):
            reply = step_recv(shard)
            assert children_of(shard._process.pid) == [], (
                f"shard {shard.shard_id} has a child at window {reply[0]}"
            )
            checked.append(shard.shard_id)
            return reply

        monkeypatch.setattr(ProcessShard, "step_recv", step_recv_checking_children)
        result = run_topology(
            spec, shards=2, recovery=RecoveryConfig(recv_timeout=10.0)
        )
        assert result.windows > 16
        assert checked.count(0) == checked.count(1) == result.windows

    def test_wedge_without_checkpoints_recovers_by_full_replay(self):
        spec = ping_spec(2, frames=6, seed=9)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(recv_timeout=0.3),
            hazards={1: {"wedge_at_window": 4, "wedge_seconds": 60.0}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.sync.restarts
        assert (record["shard"], record["window"]) == (1, 4)
        assert record["reason"] == "timed out"

    def test_no_checkpoint_recovers_by_full_replay(self):
        spec = ping_spec(2, frames=6, seed=9)
        baseline = run_digest(run_topology(spec, shards=2))
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(recv_timeout=10.0),
            hazards={1: {"die_at_window": 5}},
        )
        assert run_digest(recovered) == baseline
        (record,) = recovered.sync.restarts
        assert set(record) == {
            "shard", "window", "reason", "attempts", "horizon", "wall_seconds",
        }
        assert (record["shard"], record["window"]) == (1, 5)
        assert (record["reason"], record["attempts"]) == ("died", 1)

    def test_restart_budget_exhausted_reraises(self, monkeypatch):
        # Every revival fails: the budget is spent attempt by attempt
        # (with backoff between them), then the last failure surfaces.
        attempts = []

        def recover_failing(shard, grants):
            attempts.append(len(grants))
            raise shard._failure(ShardDiedError, "died again")

        monkeypatch.setattr(ProcessShard, "recover", recover_failing)
        with pytest.raises(ShardDiedError, match="died again"):
            run_topology(
                ping_spec(2, frames=6),
                shards=2,
                recovery=RecoveryConfig(recv_timeout=10.0, max_restarts=2),
                hazards={1: {"die_at_window": 5}},
            )
        assert attempts == [5, 5]

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
                shard._process.join()
            return collect(shard)

        monkeypatch.setattr(ProcessShard, "collect", collect_from_a_dead_worker)
        recovered = run_topology(
            spec, shards=2, recovery=RecoveryConfig(recv_timeout=10.0)
        )
        assert len(killed) == 1
        assert run_digest(recovered) == run_digest(clean)
        (record,) = recovered.sync.restarts
        assert record["window"] == clean.windows == 23
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
        recovery = RecoveryConfig(recv_timeout=10.0, max_restarts=max_restarts)

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
        (record,) = recovered.sync.restarts
        assert (record["attempts"], record["window"]) == (2, 5)
        assert recovered.sync.shards[1].replay_seconds > 0.0

    def test_unsupervised_failure_propagates(self):
        spec = ping_spec(2, frames=6)
        with pytest.raises(ShardDiedError):
            run_topology(spec, shards=2, hazards={1: {"die_at_window": 5}})

    def test_restart_is_one_record_and_no_alert(self):
        """A revival is a supervisor event: one record in the restart
        log, and the merged alert stream stays the clean run's."""
        spec = dataclasses.replace(
            ping_spec(2, frames=8, seed=4), telemetry=True
        )
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(recv_timeout=10.0),
            hazards={0: {"die_at_window": 6}},
        )
        (record,) = recovered.sync.restarts
        assert (record["shard"], record["window"], record["attempts"]) == (
            0, 6, 1
        )
        clean = run_topology(spec, shards=2)
        assert alert_timeline_digest(recovered) == alert_timeline_digest(clean)

    def test_death_inside_a_window_body_recovers_bitwise(
        self, monkeypatch, tmp_path
    ):
        # The worker dies inside window 8's body, before the window is
        # computed — a site no hazard reaches (hazards fire after it).
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
            spec, shards=2, recovery=RecoveryConfig(recv_timeout=10.0)
        )
        assert os.path.exists(marker)
        (record,) = recovered.sync.restarts
        assert (record["window"], record["reason"]) == (8, "died")
        assert run_digest(recovered) == oracle

    def test_hazard_not_replayed_after_respawn(self):
        # A respawn replays through the original crash window; the
        # hazard must have been stripped or the shard would die forever.
        spec = ping_spec(2, frames=6, seed=9)
        recovered = run_topology(
            spec,
            shards=2,
            recovery=RecoveryConfig(recv_timeout=10.0, max_restarts=2),
            hazards={1: {"die_at_window": 3}},
        )
        assert len(recovered.sync.restarts) == 1
