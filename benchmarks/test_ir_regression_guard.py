"""Guard: the IR engine's throughput holds against its recorded baseline.

Mirrors the ledger-overhead guard's discipline for the filter
compiler: re-measure every ``ir``-engine row the throughput bench
recorded in ``bench_results.json`` (same machine, same job), best of
three runs per row, and fail if the geometric mean of the
measured/recorded ratios drops below 0.85x (the baseline keeps the
best rate the throughput bench ever saw, so the remeasured short
windows sit a little under it even when nothing changed).  A pass
regression — an optimization pass that stops firing, a dispatch tree
that degenerates to a chain — drags every IR row down together;
scheduler noise hits rows independently and cancels in the mean.
"""

import json
import math
import os

import pytest

from repro.bench.scenarios import demux_label_kwargs, measure_demux_throughput
from repro.bench.tables import RESULTS_PATH

ALLOWED_REGRESSION = 0.15
MIN_SECONDS = 0.15


def recorded_ir_rates() -> dict[str, float]:
    if not os.path.exists(RESULTS_PATH):
        pytest.skip(f"no recorded baseline at {RESULTS_PATH}")
    with open(RESULTS_PATH) as handle:
        data = json.load(handle)
    experiment = data.get("perf-demux-throughput")
    if not experiment:
        pytest.skip("no perf-demux-throughput baseline recorded")
    rates = {
        row["label"]: row["measured"]
        for row in experiment["rows"]
        if row["label"].startswith("ir")
    }
    if not rates:
        pytest.skip("baseline predates the IR engine rows")
    return rates


def test_ir_demux_throughput_holds(emit):
    baseline = recorded_ir_rates()
    ratios = {}
    for label, recorded in baseline.items():
        kwargs = demux_label_kwargs(label)
        best = max(
            measure_demux_throughput(min_seconds=MIN_SECONDS, **kwargs)
            for _ in range(3)
        )
        ratios[label] = best / recorded
    emit("IR throughput vs recorded baseline:\n  " + "\n  ".join(
        f"{label}: {ratio:.2f}x" for label, ratio in ratios.items()
    ))
    geomean = math.exp(
        sum(math.log(r) for r in ratios.values()) / len(ratios)
    )
    emit(f"geometric mean: {geomean:.3f}x")
    assert geomean >= 1.0 - ALLOWED_REGRESSION, (
        f"IR engine regressed {1.0 - geomean:.0%} overall against the "
        f"recorded baseline (floor {ALLOWED_REGRESSION:.0%}); "
        f"per-row ratios: {ratios}"
    )
