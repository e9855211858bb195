"""Determinism and shard-independence of link chaos.

Two bitwise claims ride on seeded fault schedules:

* a chaos schedule derives every draw from
  ``derive_seed(seed, "chaos", link_id, ...)`` — never ``hash()`` — so
  the same seed replays the same outages under any ``PYTHONHASHSEED``
  (checked in subprocesses, mirroring the existing determinism legs);
* the partition-storm digest is identical across shard counts.

The cheap legs are tier-1; the full sweeps carry the ``difftest``
marker like the rest of this directory.
"""

import pytest

from repro.difftest.sharding import partition_storm_digest

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
