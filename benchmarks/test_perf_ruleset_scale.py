"""Demultiplexer throughput at ACL scale: 100, 1000 and 10000 rules.

The paper's section 7 conjecture is about 32 filters; this benchmark
asks how each engine holds up when the bound set looks like a modern
5-tuple ACL (see :mod:`ruleset_gen`), out to the 10k-rule firewall
scale the differential harness sweeps.  The linear engines degrade with
the rule count; the IR engine's specialized dispatch tree should make
per-packet cost essentially independent of the set size.  A second
table measures the adversarial set — every rule sharing one equality
discriminant, distinguished only by inequalities — where the tree
*cannot* split and the whole-set engine is expected to fall back to
linear cost.  Every row lands in ``bench_results.json`` (paper = 0.0:
no analogue).
"""

from repro.bench import Row, record_rows, render_table
from repro.bench.scenarios import measure_demux_throughput
from ruleset_gen import (
    RULESET_SIZES,
    generate_adversarial_ruleset,
    generate_ruleset,
    traffic_for,
)

MIN_SECONDS = 0.15

#: The adversarial sweep stops here: its whole point is linear-chain
#: behavior, and a 10k-rule linear chain measures minutes, not facts.
ADVERSARIAL_SIZES = (100, 1000)

CONFIGS = (
    # label -> measure_demux_throughput kwargs beyond the workload
    ("scan", {"engine": "compiled"}),
    ("ir", {"engine": "ir"}),
)


def collect() -> dict:
    results: dict[tuple[str, int], float] = {}
    for size in RULESET_SIZES:
        programs, tuples = generate_ruleset(size)
        # spread=True strides the round-robin across the whole set, so
        # the linear engines really do pay the average scan depth at
        # every size instead of only ever matching the first 256 ranks.
        packets = traffic_for(tuples, spread=True)
        for label, kwargs in CONFIGS:
            results[(label, size)] = measure_demux_throughput(
                programs=programs,
                packets=packets,
                min_seconds=MIN_SECONDS,
                **kwargs,
            )
    return results


def collect_adversarial() -> dict:
    results: dict[tuple[str, int], float] = {}
    for size in ADVERSARIAL_SIZES:
        programs, tuples = generate_adversarial_ruleset(size)
        packets = traffic_for(tuples, spread=True)
        for label, kwargs in CONFIGS:
            results[(label, size)] = measure_demux_throughput(
                programs=programs,
                packets=packets,
                min_seconds=MIN_SECONDS,
                **kwargs,
            )
    # One structured point at the same size, measured in the same
    # process, so the structured-vs-adversarial comparison does not
    # depend on a second test's timing run.
    programs, tuples = generate_ruleset(1000)
    results[("structured-ir", 1000)] = measure_demux_throughput(
        programs=programs,
        packets=traffic_for(tuples, spread=True),
        min_seconds=MIN_SECONDS,
        engine="ir",
    )
    return results


def test_perf_ruleset_scale(once, emit):
    results = once(collect)

    rows = [
        Row(f"{label}, {size} rules", 0.0, pps, "pkts/sec")
        for (label, size), pps in results.items()
    ]
    emit(render_table(
        "5-tuple ACL ruleset scale (wall-clock; no paper analogue)",
        rows,
    ))
    record_rows(
        "perf-ruleset-scale",
        rows,
        notes="Wall-clock packets/sec through PacketFilterDemux on "
        "synthetic 5-tuple ACL sets (ruleset_gen.py, seed 0), uniform "
        "matching traffic striding over the whole rule set.",
    )

    for size in RULESET_SIZES:
        # Compiling the set into a decision table must beat the scan.
        assert results[("ir", size)] > results[("scan", size)]
    # The specialized dispatch tree makes per-packet cost roughly
    # independent of rule count; a linear engine collapses instead.
    assert results[("ir", 1000)] > 0.4 * results[("ir", 100)]
    assert results[("scan", 1000)] < 0.5 * results[("scan", 100)]
    assert results[("ir", 10_000)] > 0.2 * results[("ir", 100)]
    assert results[("scan", 10_000)] < 0.2 * results[("scan", 100)]


def test_perf_adversarial_ruleset(once, emit):
    adversarial = once(collect_adversarial)

    rows = [
        Row(f"{label}, {size} adversarial", 0.0, pps, "pkts/sec")
        for (label, size), pps in adversarial.items()
    ]
    emit(render_table(
        "Adversarial ruleset (shared discriminant; tree cannot split)",
        rows,
    ))
    record_rows(
        "perf-ruleset-adversarial",
        rows,
        notes="Same harness as perf-ruleset-scale, but every rule tests "
        "the same dst-port equality and differs only via source-port "
        "inequalities, so the dispatch tree collapses to one linear "
        "bucket.",
    )

    # The whole-set engine loses its scale-independence: against the
    # adversarial set the IR engine must behave like a linear scan,
    # collapsing with rule count instead of staying flat.
    assert adversarial[("ir", 1000)] < 0.5 * adversarial[("ir", 100)]
    # And the structured set at the same size must be far faster than
    # the adversarial one — the tree really was doing the work.
    assert adversarial[("structured-ir", 1000)] > 2.0 * adversarial[("ir", 1000)]
