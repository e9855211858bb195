"""Crash-recoverable shards: typed failures, checkpoints, replay.

The acceptance bar is bitwise: a shard killed (or wedged) mid-run is
respawned from its fork-based checkpoint, the supervisor replays the
journaled grants, and the final :func:`~repro.difftest.sharding.run_digest`
equals the same scenario run with no fault at all.  Failure *injection*
is deterministic (the worker kills or hangs itself at an exact window
via a hazard spec), so these tests pick their crash sites instead of
racing signals.
"""

import os
import time

import pytest

from repro.difftest.sharding import run_digest
from repro.sim.orchestrator import RecoveryConfig, run_topology
from repro.sim.shard import (
    ProcessShard,
    ShardDiedError,
    ShardTimeoutError,
)

from .test_shard import ping_spec

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based checkpoints need os.fork"
)


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


@needs_fork
class TestRecovery:
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
        # already includes the window whose reply never got sent.
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
        assert record["resumed_from"] in (6, 9)

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
                    _, info = shard.recover(grants)
            assert info["checkpointed"] and info["resumed_from"] == 4
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

    def test_unsupervised_failure_propagates(self):
        spec = ping_spec(2, frames=6)
        with pytest.raises(ShardDiedError):
            run_topology(spec, shards=2, hazards={1: {"die_at_window": 5}})

    def test_restart_surfaces_as_telemetry_alert(self):
        import dataclasses

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
            if alert.get("rule") == "shard_restart"
        ]
        assert len(alerts) == 1
        assert alerts[0]["host"] == "shard:0"
        assert alerts[0]["values"]["resumed_from"] == 4.0

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
