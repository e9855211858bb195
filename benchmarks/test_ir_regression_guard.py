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

A second guard pins the incremental re-bind as a same-process *ratio*:
re-binding one of 128 never-seen rules against compiling that set cold.
"""

import json
import math
import os
import statistics
import time

import pytest

from repro.bench.scenarios import demux_label_kwargs, measure_demux_throughput
from repro.bench.tables import RESULTS_PATH
from repro.core.compiler import compile_expr, word
from repro.core.irgen import (
    SetEntry,
    chain_cache_clear,
    chain_cache_info,
    compile_ir_set,
)
from repro.core.validator import validate

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


# -- incremental re-bind: a ratio on one machine, no absolute times ----------

REBIND_RULES = 128
REBIND_MIN_SPEEDUP = 5.0


def _acl_rule(port: int, serial: int):
    return compile_expr(
        (word(6) == port) & (word(4) == 6) & (word(5) == serial)
        & (word(0) == 0x0A00) & (word(1) == serial ^ 0x5555),
        priority=10,
    )


def _compile_seconds(programs) -> float:
    entries = [
        SetEntry(rank, program, validate(program), False)
        for rank, program in enumerate(programs)
    ]
    start = time.perf_counter()
    compile_ir_set(entries)
    return time.perf_counter() - start


def test_rebind_compiles_one_chain_not_the_set(emit):
    """SETFILTER on one of 128 rules re-links 127 cached chains and
    compiles one: at least 5x faster than compiling the set cold, in
    the same process (measured ~20x; the floor only catches a key that
    stops hitting — a rank or a counter leaking back into chain code)."""
    programs = [_acl_rule(1024 + i, i) for i in range(REBIND_RULES)]
    cold = []
    for _ in range(3):
        chain_cache_clear()
        cold.append(_compile_seconds(programs))
    rebinds = []
    for serial in range(9):
        # The re-bound port moves to the end of its priority class, so
        # every later rank shifts — and the rule has never been seen.
        slot = (serial * 37) % REBIND_RULES
        programs.append(_acl_rule(1024 + slot, 1000 + serial))
        del programs[slot]
        before = chain_cache_info()
        rebinds.append(_compile_seconds(programs))
        after = chain_cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == REBIND_RULES  # 127 + fallback
    ratio = min(cold) / statistics.median(rebinds)
    emit(
        f"cold compile {min(cold) * 1e3:.1f} ms, re-bind "
        f"{statistics.median(rebinds) * 1e3:.2f} ms: {ratio:.1f}x; "
        f"{chain_cache_info()}"
    )
    assert ratio >= REBIND_MIN_SPEEDUP, (
        f"re-binding 1 of {REBIND_RULES} rules is only {ratio:.1f}x faster "
        f"than the cold compile (floor {REBIND_MIN_SPEEDUP}x)"
    )
