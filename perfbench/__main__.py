"""``python -m perfbench`` — run the whole suite, or compare two runs.

    PYTHONPATH=src python -m perfbench [--seed N] [--runs K] [--workload NAME]
                                       [--trace] [--quick] [--out FILE]
    python -m perfbench --compare A.json B.json
    python -m perfbench --update-golden

Each workload runs in processes of its own (see ``run.py``); this
module only sequences them, prints every metric by name with its unit,
and writes the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from . import SUITE
from .catalog import END_TO_END, PER_LAYER, RUN_SECONDS
from .run import MIN_REPS, OUT, ROOT, SETUP_SAMPLES, run_workload
from .stats import summary
from .workloads import NAMES

E2E = {name: (unit, better, bound, on) for name, unit, better, bound, on, _ in END_TO_END}
LAYER = {name: (unit, better) for name, unit, better, _ in PER_LAYER}


def host_record() -> dict:
    try:
        import numpy

        has_numpy = numpy.__version__
    except ImportError:
        has_numpy = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        sha = None
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": has_numpy,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_suite(args) -> dict:
    """Every workload, ``--runs`` times over on consecutive seeds, turn
    about so that a slow phase of the host falls on all of them.  With
    more than one run a metric's value is the median of the runs'
    values, and its quartiles and ``n`` are across runs — how the driver
    reads the benchmark too."""
    quick = args.quick
    names = [args.workload] if args.workload else list(NAMES)
    record = {
        "suite": SUITE,
        "seed": args.seed,
        "runs": args.runs,
        "scale": "quick" if quick else "full",
        "run_seconds": 0 if quick else RUN_SECONDS,
        "host": host_record(),
        "workloads": {},
        "metrics": [],
    }
    # Quick: two repetitions and a single build; no timing is meant to
    # be read off it, only the schema and the correctness gate.
    options = dict(
        scale=record["scale"],
        seconds=0.0 if quick else float(RUN_SECONDS),
        min_reps=2 if quick else MIN_REPS,
        setup_samples=(1, 1) if quick else SETUP_SAMPLES,
    )
    cores = len(record["host"]["affinity"] or []) or record["host"]["cpu_count"]
    infos = {
        name: {"repetitions": [], "packets_per_repetition": None, "digests": [],
               "attempted": 0, "failed": 0, "notes": []}
        for name in names
    }
    infos.get("flow_storm_s2", {})["cores"] = cores  # one core: kept, labelled
    per_run: dict = {}  # (kind, metric, workload) -> one summary per run
    for run in range(args.runs):
        for name in names:
            info = infos[name]
            details = [run_workload(name, args.seed + run, trace=False, **options)]
            info["repetitions"].append(details[0]["repetitions"])
            info["packets_per_repetition"] = details[0]["packets_per_repetition"]
            info["digests"].append(details[0]["digest"])
            for metric, stats in details[0]["end_to_end"].items():
                per_run.setdefault(("end_to_end", metric, name), []).append(stats)
            if args.trace:
                details.append(
                    run_workload(name, args.seed + run, trace=True, **options)
                )
                info["trace_file"] = details[1]["trace_file"]
                for metric, value in details[1]["per_layer"].items():
                    per_run.setdefault(("per_layer", metric, name), []).append(
                        summary([value])
                    )
            for detail in details:
                info["attempted"] += detail["attempted"]
                info["failed"] += detail["failed"]
                info["notes"] += detail["notes"]
            if args.runs > 1:
                print(f"run {run + 1}/{args.runs}: {name} done", flush=True)
    for (kind, metric, name), runs in per_run.items():
        unit, better = (E2E if kind == "end_to_end" else LAYER)[metric][:2]
        stats = runs[0] if len(runs) == 1 else summary([r["value"] for r in runs])
        if "raw_median" in runs[0]:
            stats["raw_median"] = summary([r["raw_median"] for r in runs])["median"]
        record["metrics"].append({
            "name": metric, "workload": name, "kind": kind, "unit": unit,
            "direction": better, **stats,
        })
    record["workloads"] = infos
    for name in names:
        _print_workload(name, infos[name], record["metrics"])
    return record


def _print_workload(name: str, info: dict, metrics: list) -> None:
    print(f"\n== {name}: {info['repetitions']} repetitions of "
          f"{info['packets_per_repetition']} packets, "
          f"{info['failed']}/{info['attempted']} checks failed")
    for note in info["notes"]:
        print(f"   ! {note}")
    rows = [row for row in metrics if row["workload"] == name]
    idle = [row for row in rows if row["kind"] == "per_layer" and not row["value"]]
    for row in rows:
        if row in idle:
            continue
        spread = (
            f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]"
            if row["n"] > 1 else ""
        )
        print(f"   {row['name']:<40} {row['value']:>14.6g} {row['unit']:<6}{spread}")
    if idle:
        print(f"   ({len(idle)} per-layer metrics read 0: the workload never "
              "enters those layers)")


def compare(path_a: str, path_b: str) -> int:
    """B against A: how much worse each end-to-end median got, as a
    share of A's, next to the bound.  Exit status 1 on any breach."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)

    def values(record):
        return {
            (row["name"], row["workload"]): row["value"]
            for row in record["metrics"] if row["kind"] == "end_to_end"
        }

    before, after = values(a), values(b)
    breaches = 0
    print(f"{'metric':<16}{'workload':<16}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}")
    for key in sorted(before):
        name, workload = key
        if key not in after:
            print(f"{name:<16}{workload:<16}  missing from {path_b}")
            breaches += 1
            continue
        _, better, bound, _ = E2E[name]
        old, new = before[key], after[key]
        delta = (old - new) if better == "higher" else (new - old)
        # a metric that reads 0 when all is well has no share to take:
        # any worsening at all is past a bound of 0
        worse = delta / old if old else (1.0 if delta > 0 else 0.0)
        breach = worse > bound
        breaches += breach
        print(f"{name:<16}{workload:<16}{old:>14.6g}{new:>14.6g}"
              f"{worse:>+10.1%}{bound:>8.0%}{'  BREACH' if breach else ''}")
    if all(a[key] == b[key] for key in ("seed", "runs", "scale")):
        # Same inputs: the simulated results must agree exactly.
        differing = [
            name for name, info in a["workloads"].items()
            if info["digests"] != b["workloads"].get(name, {}).get("digests")
        ]
        if differing:
            print(f"digests differ on: {', '.join(differing)}")
            breaches += 1
        else:
            print("digests agree exactly")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...; "
                             "values are medians across runs")
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced repetition per workload")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 sizes, 2 repetitions: schema and gate only")
    parser.add_argument("--out", default=os.path.join(OUT, "BENCH.json"),
                        help="result file (default: perfbench/out/BENCH.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.update_golden:
        from .golden import PATH, record, save_golden

        save_golden(record())
        print(f"rewrote {os.path.relpath(PATH, ROOT)}")
        return 0
    record = run_suite(args)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    failed = sum(info["failed"] for info in record["workloads"].values())
    print(f"\nwrote {args.out}; {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
