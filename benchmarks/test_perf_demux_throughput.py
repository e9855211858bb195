"""Demultiplexer throughput per engine, in real packets per second.

The engine ladder — checked interpreter, prevalidated fast path,
compiled closures, and the IR filter-set engine with its flow cache —
measured on the wall clock with 1 and 32 bound filters.  The
acceptance bar: the IR engine with the flow cache must demultiplex at
least 3x the checked interpreter's rate on the 32-filter workload.
Every row lands in ``bench_results.json`` (paper = 0.0: the paper
predates this kind of engine comparison).
"""

from repro.bench import Row, record_rows, render_table
from repro.bench.scenarios import measure_demux_throughput
from repro.core.demux import Engine

ENGINES = tuple(engine.value for engine in Engine)
FILTER_COUNTS = (1, 32)
MIN_SECONDS = 0.15
BEST_OF = 3
"""Measurement rounds.  Every configuration is measured once per round
— round-robin, not back-to-back — and keeps its best rate, so all
configurations sample the same host-load regimes and a transient spike
cannot invert the cross-engine assertions."""


def collect() -> dict:
    configs: list[tuple[tuple[str, int], str, dict]] = []
    for engine in ENGINES:
        for filters in FILTER_COUNTS:
            configs.append(((engine, filters), engine, {}))
    for filters in FILTER_COUNTS:
        configs.append((("ir+cache", filters), "ir", {"flow_cache": True}))

    results: dict[tuple[str, int], float] = {}
    for _ in range(BEST_OF):
        for key, engine, kwargs in configs:
            rate = measure_demux_throughput(
                engine,
                filters=key[1],
                min_seconds=MIN_SECONDS,
                **kwargs,
            )
            if rate > results.get(key, 0.0):
                results[key] = rate
    return results


def test_perf_demux_throughput(once, emit):
    results = once(collect)

    rows = [
        Row(f"{engine}, {filters} filters", 0.0, pps, "pkts/sec")
        for (engine, filters), pps in results.items()
    ]
    emit(render_table(
        "Demux throughput by engine (wall-clock; no paper analogue)",
        rows,
    ))
    record_rows(
        "perf-demux-throughput",
        rows,
        notes="Wall-clock packets/sec through PacketFilterDemux.deliver "
        "on the benchmark host; filter shape "
        "(word 6 == ethertype) & (word 7 == index), uniform traffic.",
    )

    # The ladder must actually be a ladder, at both filter counts.
    for filters in FILTER_COUNTS:
        checked = results[("checked", filters)]
        assert results[("compiled", filters)] > checked
        assert results[("ir", filters)] > checked
    # Acceptance: IR + flow cache >= 3x checked on 32 filters.
    assert results[("ir+cache", 32)] >= 3.0 * results[("checked", 32)]
    # Whole-set dispatch makes the per-packet cost roughly independent
    # of the number of bound filters; the linear engines degrade ~16x.
    assert results[("ir", 32)] > 0.5 * results[("ir", 1)]
