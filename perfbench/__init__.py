"""perfbench — the repository's host-time benchmark.

Six named workloads, end-to-end host-time metrics and a per-layer
wall-clock budget taken from outside ``src/`` by timing calls into
public functions.  ``perfbench/README.md`` says why each workload is
here and how to read the numbers; ``BENCHMARK.json`` at the repo root
is the machine-readable contract.
"""

SUITE = "perfbench-11"
"""Suite id written into every result file: the PR that fixed the
workloads and metric definitions.  A change to either is a new suite."""
