"""The traced run: one repetition under the tracer, next to an untraced
one.

End-to-end numbers never come from here.  The untraced repetition gives
the figures tracing would inflate (events per host second, grant waits)
and the baseline for ``trace.overhead_pct``; the traced one gives each
layer's calls, inclusive and self time.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil

from .layers import merge_aggregates, per_layer
from .tracer import Tracer, aggregate
from .workloads import Check, Workload

__all__ = ["traced_run"]

NESTING_TOLERANCE = 0.02
"""Self times must sum to the traced wall within this share."""


def _under_tracer(tracer: Tracer, fn):
    tracer.install()
    try:
        gc.collect()
        with tracer.span("perfbench.rep"):
            return fn()
    finally:
        tracer.remove()


def traced_run(workload: Workload, out_dir: str) -> dict:
    gc.collect()
    plain = workload.repeat()

    worker_dir = os.path.join(out_dir, f"trace-{workload.name}.workers")
    shutil.rmtree(worker_dir, ignore_errors=True)
    tracer = Tracer(body_layer=workload.body_layer)
    tracer.child_dir = worker_dir
    workload.verify = False  # keep the reference engine out of the profile
    try:
        traced = _under_tracer(tracer, workload.repeat)
    finally:
        workload.verify = True
    own = tracer.aggregate()
    workers = []
    for path in sorted(glob.glob(os.path.join(worker_dir, "*.json"))):
        with open(path) as handle:
            workers.append(aggregate(json.load(handle)))
    trace_file = os.path.join(out_dir, f"trace-{workload.name}.json")
    tracer.dump(trace_file)

    def traced_pass(fn) -> dict:
        extra = Tracer(body_layer=workload.body_layer)
        _under_tracer(extra, fn)
        return extra.aggregate()

    extras = workload.layer_extras(traced_pass)
    metrics = per_layer(
        merge_aggregates(own, workers), own, traced, plain, extras
    )

    check = Check()
    check.expect(
        (traced.digest, traced.packets) == (plain.digest, plain.packets),
        f"tracing changed the job: {traced.digest}/{traced.packets} traced, "
        f"{plain.digest}/{plain.packets} untraced",
    )
    check.expect(
        abs(metrics["trace.self_sum_ratio"] - 1.0) <= NESTING_TOLERANCE,
        f"self times sum to {metrics['trace.self_sum_ratio']:.4f} of the "
        "traced wall",
    )
    shards = traced.sim.get("shards", 1)
    check.expect(
        len(workers) == (shards if shards > 1 else 0),
        f"{len(workers)} shard worker traces for {shards} shards",
    )
    return {
        "per_layer": metrics,
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
        "trace_file": os.path.relpath(trace_file, os.path.dirname(out_dir)),
    }
