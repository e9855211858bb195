"""Determinism and shard-independence of chaos and recovery.

Three bitwise claims ride on seeded fault schedules:

* a chaos schedule derives every draw from
  ``derive_seed(seed, "chaos", link_id, ...)`` — never ``hash()`` — so
  the same seed replays the same outages under any ``PYTHONHASHSEED``
  (checked in subprocesses, mirroring the existing determinism legs);
* the partition-storm digest is identical across shard counts and
  — with the supervisor armed and a shard killed mid-run — identical
  to the fault-free run (respawn and replay are invisible);
* that holds at *every* kill site: each victim shard dying or wedging
  with each window's reply in hand is respawned once and replayed to
  the same digest (tier-1 samples this product; here it runs whole).

The cheap legs are tier-1; the full sweeps carry the ``difftest``
marker like the rest of this directory.
"""

import pytest

from repro.difftest.sharding import partition_storm_digest
from repro.sim.orchestrator import RecoveryConfig

from ..sim.test_shard_recovery import (
    KILL_SITE_FAULTS,
    check_kill_site,
    kill_site_baseline,
    needs_fork,
)

FLAP_SNIPPET = """\
from repro.sim.faults import flap_schedule, schedule_fingerprint
faults = flap_schedule(
    11, "lan0~lan1", start=0.0, until=2.0, mean_down=0.05, mean_up=0.1
)
print(schedule_fingerprint(faults))
print(len(faults))
"""

STORM_SNIPPET = """\
from repro.difftest.sharding import partition_storm_digest
print(partition_storm_digest(segments=2, shards=2, seed=7, duration=0.8))
"""


class TestHashseedDeterminism:
    def test_flap_schedule_stable_across_hashseeds(self, hashseed_outputs):
        first, second = hashseed_outputs(FLAP_SNIPPET)
        assert first == second

    @pytest.mark.difftest
    def test_partition_storm_digest_stable_across_hashseeds(
        self, hashseed_outputs
    ):
        first, second = hashseed_outputs(STORM_SNIPPET)
        assert first == second


@pytest.mark.difftest
class TestPartitionStormSweep:
    def test_digest_is_shard_count_independent(self):
        baseline = partition_storm_digest(segments=3, shards=1, seed=3)
        for shards in (2, 3):
            assert (
                partition_storm_digest(segments=3, shards=shards, seed=3)
                == baseline
            )

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1987])
    def test_killed_shard_recovers_bitwise(self, shards, seed):
        baseline = partition_storm_digest(
            segments=3, shards=shards, seed=seed, duration=0.8
        )
        recovered = partition_storm_digest(
            segments=3,
            shards=shards,
            seed=seed,
            duration=0.8,
            recovery=RecoveryConfig(recv_timeout=30.0),
            hazards={shards - 1: {"die_at_window": 25}},
        )
        assert recovered == baseline


@needs_fork
@pytest.mark.difftest
class TestEveryKillSite:
    @pytest.mark.parametrize("fault", sorted(KILL_SITE_FAULTS))
    @pytest.mark.parametrize("victim", [0, 1])
    def test_every_window_is_a_recoverable_kill_site(self, victim, fault):
        _, windows = kill_site_baseline()
        for kill in range(1, windows + 1):
            check_kill_site(victim, kill, fault)
