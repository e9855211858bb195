#!/usr/bin/env python3
"""One workload, one run — the command ``BENCHMARK.json`` names.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures the workload, checks its outputs, and prints one JSON object as
the last line of standard output.  With ``--trace 0`` the metrics are
the end-to-end ones, measured with tracing off: the workload is built
several times in fresh processes (``setup_s`` is the median) and timed
in the last of them.  With ``--trace 1`` they are the per-layer ones,
from one traced repetition in one process.

The same file is the child those processes run (``--child``); the suite
runner (``python -m perfbench``) calls :func:`run_workload` for each
workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 5.0
"""Fresh-process builds per run, the measuring process being the last:
at least three, and up to seven while they fit the budget."""
MIN_REPS = 7
CHILD_TIMEOUT = 170


def _import_path() -> None:
    """Make ``perfbench`` and ``repro`` importable from a bare checkout.

    The program is built from the checkout this file sits in and from
    nowhere else: without ``src/repro`` beside ``perfbench/`` there is
    nothing to measure, and the run fails.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no src/repro under {ROOT}; nothing to measure")
    if sys.path and os.path.abspath(sys.path[0] or os.getcwd()) == HERE:
        del sys.path[0]  # run as a script: keep perfbench/ modules unshadowed
    for entry in (src, ROOT):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# ---------------------------------------------------------------------------
# the parent: spawn, collect, report
# ---------------------------------------------------------------------------


def _child(mode: str, name: str, seed: int, scale: str, seconds: float,
           min_reps: int) -> dict:
    env = dict(os.environ)
    # One hash seed for every child: set-iteration order then repeats
    # from run to run, and with it the generated classifier's layout.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", name, "--seed", str(seed), "--scale", scale,
        "--seconds", repr(seconds), "--min-reps", str(min_reps),
        "--t0", repr(time.time()),
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{name}: {mode} process exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    scale: str = "full",
    min_reps: int = MIN_REPS,
    setup_samples: tuple[int, int] = SETUP_SAMPLES,
) -> dict:
    """Run one workload; returns the measuring (or tracing) process's
    detail record.  An untraced run also builds the workload in fresh
    processes first and reports ``setup_s`` over every build; a traced
    run reports no end-to-end metric, so it builds once."""
    from perfbench.stats import summary

    if trace:
        return _child("trace", name, seed, scale, seconds, min_reps)
    fewest, most = setup_samples
    setups: list[float] = []
    started = time.perf_counter()
    while len(setups) < fewest - 1 or (
        len(setups) < most - 1
        and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        setups.append(_child("setup", name, seed, scale, 0.0, 0)["setup_s"])
    detail = _child("measure", name, seed, scale, seconds, min_reps)
    setups.append(detail.pop("setup_s"))
    detail["end_to_end"]["setup_s"] = summary(setups)
    return detail


def contract_result(detail: dict, trace: bool) -> dict:
    """The one-line result the driver reads."""
    from perfbench.catalog import END_TO_END, PER_LAYER

    if trace:
        metrics = {
            name: {"value": detail["per_layer"][name], "unit": unit}
            for name, unit, *_ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": detail["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _, _, _, listed in END_TO_END
            if listed
        }
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# the child: build, (warm up,) measure, check
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    reaped child (the shard workers of ``flow_storm_s2``), MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def child_main(args) -> dict:
    import gc

    from perfbench.calibrate import reference_ns, speed_factors
    from perfbench.stats import summary
    from perfbench.workloads import create

    workload = create(args.workload, args.seed, args.scale)
    workload.repeat()  # warm-up: caches fill, lazy set-up finishes
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": time.time() - args.t0,
    }
    if args.child == "setup":
        return out
    if args.child == "trace":
        from perfbench.traced import traced_run

        out.update(traced_run(workload, OUT))
        return out

    reps, brackets = [], []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < args.min_reps or time.perf_counter() < deadline:
        gc.collect()
        before = reference_ns()
        reps.append(workload.repeat())
        brackets.append((before, reference_ns()))
    peak = _peak_rss_mb()
    check = workload.check(reps)
    factors = speed_factors(brackets)
    raw = [rep.packets / (rep.wall_ns / 1e9) for rep in reps]
    rates = summary([rate * f for rate, f in zip(raw, factors)], report="q3")
    rates["raw_median"] = summary(raw)["median"]
    end_to_end = {
        "pkts_per_s": rates,
        "peak_rss_mb": summary([peak]),
        "failed_share": summary([check.failed / check.attempted]),
    }
    end_to_end.update(workload.end_to_end_extras(reps, factors))
    out.update({
        "repetitions": len(reps),
        "packets_per_repetition": reps[0].packets,
        "digest": reps[0].digest,
        "attempted": check.attempted,
        "failed": check.failed,
        "notes": check.notes,
        "end_to_end": end_to_end,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--child", choices=("setup", "measure", "trace"))
    parser.add_argument("--min-reps", type=int, default=MIN_REPS)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    _import_path()

    from perfbench.catalog import RUN_SECONDS
    from perfbench.workloads import NAMES

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r} (have: {', '.join(NAMES)})")
    if args.seconds is None:
        args.seconds = float(RUN_SECONDS)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    detail = run_workload(
        args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=args.scale,
    )
    for note in detail["notes"]:
        print(f"perfbench: {args.workload}: {note}", file=sys.stderr)
    print(json.dumps(contract_result(detail, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
