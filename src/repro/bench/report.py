"""Regenerate EXPERIMENTS.md from a benchmark run.

Usage::

    pytest benchmarks/ --benchmark-only     # writes bench_results.json
    python -m repro.bench.report            # writes EXPERIMENTS.md

The tables record paper-vs-measured for every experiment the paper's
evaluation section defines; the narrative preamble and per-experiment
titles live here.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tables import RESULTS_PATH

TITLES = {
    "table-6-1": "Table 6-1 — Cost of sending packets",
    "section-6-1": "Section 6.1 — Kernel per-packet processing time",
    "table-6-2": "Table 6-2 — VMTP, minimal round-trip operation",
    "table-6-3": "Table 6-3 — VMTP, bulk data transfer",
    "table-6-4": "Table 6-4 — Effect of received-packet batching",
    "table-6-5": "Table 6-5 — Effect of user-level demultiplexing on VMTP",
    "table-6-6": "Table 6-6 / §6.4 — Byte-stream throughput (BSP vs TCP)",
    "table-6-7": "Table 6-7 — Telnet output rates",
    "table-6-8": "Table 6-8 — Per-packet cost of user-level demultiplexing",
    "table-6-9": "Table 6-9 — Same, with received-packet batching",
    "table-6-10": "Table 6-10 — Cost of interpreting packet filters",
    "figure-2-1-2-2": "Figures 2-1/2-2 — Demultiplexing cost diagrams, measured",
    "figure-2-3": "Figure 2-3 — Kernel residency confines overhead packets",
    "figure-3-4-3-5": "Figures 3-4/3-5 — Batching amortizes per-packet events",
    "figure-3-6": "Figure 3-6 — The filter language (conformance)",
    "figure-3-8-3-9": "Figures 3-8/3-9 — The example filters & short-circuiting",
    "figure-4-1": "Figure 4-1 — The filter application loop at scale",
    "figure-3-1-3-3": "Figures 3-1/3-3 — Coexistence with kernel protocols",
    "ablation-section-7": "Section 7 ablations — fast paths, wall-clock",
    "section-6-5-break-even": "Section 6.5.3 — Kernel-filtering break-even",
    "ablation-nit": "Ablation — Single-field NIT vs the packet filter",
    "ablation-cheap-switches": "Ablation — §2: cheap context switches",
    "ablation-write-batching": "Ablation — §7's write batching, measured",
    "section-3-bind-cost": "Section 3 — Filter binding cost",
    "perf-demux-throughput": (
        "Perf — Demux throughput by engine (IR + flow cache)"
    ),
    "perf-ruleset-scale": (
        "Perf — 5-tuple ACL ruleset scale (100 / 1000 / 10000 rules)"
    ),
    "perf-ruleset-adversarial": (
        "Perf — Adversarial ruleset (shared discriminant; dispatch "
        "tree cannot split)"
    ),
    "shard_scaling_pps": (
        "Perf — Sharded topology scaling (events/sec vs worker "
        "processes; bitwise-identical results)"
    ),
    "chaos-spurious-rto": (
        "Chaos — Spurious retransmissions, fixed vs adaptive timer"
    ),
    "overload-livelock": (
        "Overload — Goodput under storm, interrupt collapse vs "
        "polling plateau"
    ),
    "partition-goodput-dip": (
        "Chaos — Bridged goodput collapse and recovery across a "
        "healing link partition"
    ),
}

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
Mogul/Rashid/Accetta, *The Packet Filter* (SOSP 1987).  Regenerated
from an actual benchmark run by:

```
pytest benchmarks/ --benchmark-only   # runs everything, records results
python -m repro.bench.report          # rewrites this file
```

**How to read the numbers.**  The paper's measurements come from VAX
hardware in 1987; ours come from a deterministic discrete-event
simulation whose cost model is calibrated to the handful of primitives
the paper itself measured (0.4 ms context switch, 0.5 ms + 1 ms/KByte
copies, 0.49/1.77 ms IP input, the table 6-10 filter-instruction slope
— see `repro/sim/costs.py`).  Composite numbers — round-trip times,
throughputs, break-evens — are *outputs* of running real protocol code
over those primitives, not inputs, so agreement in shape (orderings,
ratios, crossovers) is the reproduction claim, and each benchmark
asserts those shapes.  The `meas/paper` column shows how the absolutes
landed anyway.

Known, deliberate divergences are footnoted per experiment; the
recurring ones:

* **Table 6-5 bulk (paper 4x, ours >2x)** — the paper blames much of
  its 4x on "the poor IPC facilities in 4.3BSD"; our simulated pipe is
  a fair byte-stream pipe, so the demultiplexing process pays only the
  honest switches/copies/syscalls.
* **Table 6-9's 1.9 ms user-demux row** — the paper's own number beats
  its kernel row; we reproduce the stated claims (batching shrinks the
  penalty, a gap remains) rather than that artifact.
* **Figure paper-columns** — figures 2-x/3-x are diagrams; where a
  "paper" value appears for them it is the analytical expectation the
  figure's caption/text implies, noted per table.
"""


def _number(value: float) -> str:
    """Plain decimal rendering at a sensible precision (no 1.78e+03)."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{value:.3f}".rstrip("0").rstrip(".")


def generate(results_path: str = RESULTS_PATH) -> str:
    path = Path(results_path)
    if not path.exists():
        raise SystemExit(
            f"{results_path} not found — run "
            f"`pytest benchmarks/ --benchmark-only` first"
        )
    data = json.loads(path.read_text())

    lines = [PREAMBLE]
    order = [key for key in TITLES if key in data]
    extras = sorted(set(data) - set(TITLES))
    for key in order + extras:
        entry = data[key]
        lines.append(f"\n## {TITLES.get(key, key)}\n")
        lines.append("| quantity | paper | measured | meas/paper |")
        lines.append("|---|---:|---:|---:|")
        for row in entry["rows"]:
            ratio = (
                row["measured"] / row["paper"] if row["paper"] else float("nan")
            )
            unit = f" {row['unit']}" if row.get("unit") else ""
            lines.append(
                f"| {row['label']} | {_number(row['paper'])}{unit} "
                f"| {_number(row['measured'])}{unit} | {ratio:.2f} |"
            )
        if entry.get("notes"):
            lines.append(f"\n*Note: {entry['notes']}*")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    output = generate()
    Path("EXPERIMENTS.md").write_text(output)
    print(f"wrote EXPERIMENTS.md ({len(output.splitlines())} lines)")


if __name__ == "__main__":
    main()
