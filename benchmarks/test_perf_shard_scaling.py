"""Shard scaling: aggregate events/sec of the flow storm vs shard count.

The conservative orchestrator's speedup claim, measured: the same
seeded flow-cache miss storm runs on 1, 2 and 4 worker processes, and
because the result is bitwise identical by construction (the difftest
oracle pins that), the only thing allowed to change is the wall clock.
Rows land in ``bench_results.json`` under ``shard_scaling_pps``.

Scaling assertions are gated on the host actually having cores to scale
onto: on a multi-core machine 2 shards must reach >= 1.6x and 4 shards
>= 2.5x the single-process event rate; on fewer cores the rates are
still recorded (the curve is the artifact) but the bar is not applied —
two processes on one core just interleave.

``REPRO_SHARD_QUICK=1`` shrinks the workload and drops the 4-shard
point for bounded CI runs.
"""

import os

from repro.bench import Row, record_rows, render_table
from repro.bench.scenarios import run_flow_storm

QUICK = os.environ.get("REPRO_SHARD_QUICK", "") not in ("", "0")

#: Enough offered load per segment that stepping dominates IPC.
WORKLOAD = dict(
    segments=4,
    duration=0.1 if QUICK else 0.4,
    flows=128,
    cache_size=32,
    seed=1987,
    ledger=False,   # measure the simulator, not span bookkeeping
)
SHARD_COUNTS = (1, 2) if QUICK else (1, 2, 4)
BEST_OF = 1 if QUICK else 3


def collect() -> dict[int, dict]:
    results: dict[int, dict] = {}
    for _ in range(BEST_OF):
        for shards in SHARD_COUNTS:
            outcome = run_flow_storm(shards=shards, **WORKLOAD)
            rate = outcome["events_fired"] / outcome["wall_seconds"]
            best = results.get(shards)
            if best is None or rate > best["events_per_sec"]:
                results[shards] = {
                    "events_per_sec": rate,
                    "sim_pps": outcome["sim_pps"],
                    "events_fired": outcome["events_fired"],
                    "frames_received": outcome["frames_received"],
                }
    return results


def test_perf_shard_scaling(once, emit):
    results = once(collect)

    # Partition-independence first: every shard count simulated the
    # exact same world, so the event and frame totals must agree.
    baseline = results[1]
    for shards, outcome in results.items():
        assert outcome["events_fired"] == baseline["events_fired"], shards
        assert outcome["frames_received"] == baseline["frames_received"]

    rows = [
        Row(
            f"{shards} shard(s)",
            0.0,
            outcome["events_per_sec"],
            "events/sec",
        )
        for shards, outcome in sorted(results.items())
    ]
    rows.append(Row(
        "offered load (simulated)", 0.0, baseline["sim_pps"], "pkts/sec"
    ))
    emit(render_table(
        "Shard scaling — flow storm events/sec (wall-clock)", rows
    ))
    cores = os.cpu_count() or 1
    # Workers pin themselves to CPUs of this set, so it is the usable
    # parallelism, whatever the host's core count says.
    usable = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else "unknown"
    )
    record_rows(
        "shard_scaling_pps",
        rows,
        notes=(
            f"Aggregate wall-clock events/sec of the {WORKLOAD['segments']}"
            f"-segment flow-cache miss storm vs worker-process count "
            f"(quick={QUICK}, host cores={cores}, usable CPUs={usable}). "
            "Results are bitwise identical across shard counts (tests/difftest/"
            "test_shard_oracle.py); only wall time may move."
        ),
    )

    # The speedup bar only binds where the hardware can express it.
    def speedup(shards: int) -> float:
        return results[shards]["events_per_sec"] / baseline["events_per_sec"]

    if 2 in results and cores >= 2:
        assert speedup(2) >= 1.6, f"2-shard speedup {speedup(2):.2f}x < 1.6x"
    if 4 in results and cores >= 4:
        assert speedup(4) >= 2.5, f"4-shard speedup {speedup(4):.2f}x < 2.5x"
