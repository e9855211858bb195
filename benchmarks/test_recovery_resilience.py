"""Recovery resilience: kill-a-shard acceptance and the replay bill.

Not a paper table — the acceptance matrix for crash-recoverable
sharding.  A worker killed at a *seeded-random* window must be
respawned, replay the journal, and finish with a digest bitwise equal
to the undisturbed run, across shard counts and seeds.  The benchmark
half measures what a revival costs: a respawn replays every window up
to the kill, so the stall (time-to-recover) grows with the kill window.
A last leg quantifies the partition storm's goodput dip from the
bridge-ingress telemetry series — the number the partition watchdog's
rate predicate is watching.
"""

import pytest

from repro.bench import Row, record_rows, render_table
from repro.bench.scenarios import run_partition_storm
from repro.difftest.sharding import partition_storm_digest
from repro.sim.orchestrator import RecoveryConfig
from repro.sim.seeds import derive_rng

pytestmark = pytest.mark.chaos

DURATION = 0.8
#: Windows this scenario/duration reliably exceeds (it runs ~400); the
#: randomized kill site stays below it so the hazard always fires.
KILL_WINDOW_RANGE = (10, 200)


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("seed", [0, 1987])
def test_randomized_kill_recovers_bitwise(shards, seed):
    """The acceptance matrix: seeded-random crash site, bitwise finish."""
    rng = derive_rng(seed, "bench", "kill-window", shards)
    kill_at = rng.randrange(*KILL_WINDOW_RANGE)
    victim = rng.randrange(shards)
    baseline = partition_storm_digest(
        segments=3, shards=shards, seed=seed, duration=DURATION
    )
    recovered = partition_storm_digest(
        segments=3,
        shards=shards,
        seed=seed,
        duration=DURATION,
        recovery=RecoveryConfig(recv_timeout=30.0),
        hazards={victim: {"die_at_window": kill_at}},
    )
    assert recovered == baseline, (
        f"recovery changed the run: shard {victim} killed at window "
        f"{kill_at} ({shards} shards, seed {seed})"
    )


def test_partition_watchdog_fires_in_storm():
    """The watchdog half of the acceptance bar, at bench scale."""
    storm = run_partition_storm(segments=2, shards=2, seed=0, duration=1.2)
    assert storm["partition_alerts"], "partition watchdog silent"
    assert storm["backoff_alerts"], "RTO backoff storm silent"
    assert storm["livelock_alerts"] == []
    for alert in storm["partition_alerts"]:
        assert 0.2 <= alert.fired_at <= 0.6
        assert alert.cleared_at is not None and alert.cleared_at > 0.55


def test_time_to_recover_vs_kill_window(once, emit):
    """Sweep the kill site: windows replayed and recovery stall.

    Shard 1 dies holding the reply of window 63, of the middle window
    and of the last window of the run.  A respawn replays the whole
    journal, so the windows replayed are the kill window itself.
    """

    def storm(**options):
        return run_partition_storm(
            segments=3, shards=2, seed=3, duration=DURATION, **options
        )

    def collect():
        windows = storm()["result"].windows
        records = {}
        for kill_at in (63, windows // 2, windows):
            (records[kill_at],) = storm(
                recovery=RecoveryConfig(recv_timeout=30.0),
                hazards={1: {"die_at_window": kill_at}},
            )["restarts"]
        return windows, records

    windows, records = once(collect)
    rows = []
    for kill_at, record in records.items():
        assert record["window"] == kill_at   # every window is replayed
        assert record["attempts"] == 1
        rows.append(
            Row(
                f"killed at window {kill_at}",
                record["window"],
                record["wall_seconds"] * 1000.0,
                "windows replayed / ms to recover",
            )
        )
    emit(
        render_table(
            "Time to recover vs kill window "
            "(baseline column = windows replayed; measured = stall ms)",
            rows,
        )
    )
    record_rows(
        "recovery-replay-vs-kill-window",
        rows,
        notes=(
            f"Partition storm, 3 segments on 2 shards, {windows} windows; "
            "shard 1 killed holding a window's reply (computed, never "
            "sent).  The supervisor respawns the worker and replays the "
            "journal from window 1, so the stall is every window up to "
            "the kill re-stepped before the run proceeds."
        ),
    )


def test_partition_goodput_dip(emit):
    """Quantify the dip the watchdog sees: bridged goodput by phase."""
    storm = run_partition_storm(segments=2, shards=1, seed=0, duration=1.2)
    series = storm["result"].telemetry.series
    samples = series[("segment:lan0", "bridge.lan0~lan1.ingress")].samples

    def goodput(t0: float, t1: float) -> float:
        inside = [(t, v) for t, v in samples if t0 <= t <= t1]
        if len(inside) < 2:
            return 0.0
        (ta, va), (tb, vb) = inside[0], inside[-1]
        return (vb - va) / (tb - ta) if tb > ta else 0.0

    before = goodput(0.05, 0.2)
    during = goodput(0.25, 0.5)
    after = goodput(0.95, 1.2)
    emit(
        f"\nbridged goodput (frames/s into lan0): "
        f"before={before:.1f} during-partition={during:.1f} "
        f"after-heal={after:.1f}"
    )
    assert before > 0.0
    assert during == 0.0, "goodput did not collapse during the partition"
    assert after > 0.0, "goodput did not recover after the heal"
    record_rows(
        "partition-goodput-dip",
        [
            Row("before partition", before, before, "frames/s"),
            Row("during partition", before, during, "frames/s"),
            Row("after heal", before, after, "frames/s"),
        ],
        notes=(
            "Cross-segment frame rate into lan0 (bridge ingress gauge), "
            "partition over [0.2, 0.55).  The partition watchdog fires "
            "on exactly this collapse while local pf.delivered stays "
            "healthy."
        ),
    )
