"""Re-bind latency against rule count: ``SETFILTER`` at firewall scale.

Binds ``perfbench``'s seeded 5-tuple ACL (one distinct destination port
per rule) into an ``Engine.IR`` demultiplexer, compiles it with one
round of traffic, then re-binds one port at a time to a rule the
process has never seen, exactly as the ``acl_churn`` workload does:
``detach`` + ``bind_filter`` + ``attach`` + the first ``deliver``, which
compiles the new set against the one it replaces.  Prints the median,
95th percentile and mean re-bind time per rule count, and the cold
compile.  The mean is the one that shows the rare re-bind which moves
the root's key and so re-links every bucket.

    PYTHONPATH=src python benchmarks/rebind_scale.py [--rules 128 1000 10000]

Each size runs ``REBINDS`` re-binds of ACL seed ``SEED`` in a fresh
process, so no size runs on another's heap.  Times are host
wall clock: compare two trees only in alternating runs on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REBINDS = 60
SEED = 0


def _percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * share // 100))
    return ordered[int(rank) - 1]


def measure(rules: int) -> dict:
    """Cold compile and re-bind times (ms) for one rule count."""
    sys.path.insert(0, ROOT)
    from perfbench import gen
    from repro.core import Engine, PacketFilterDemux, Port

    acl = gen.acl_rules(rules, SEED)
    packets, _ = gen.acl_round(acl, SEED)
    demux = PacketFilterDemux(engine=Engine.IR, reorder_same_priority=False)
    ports = []
    for index, rule in enumerate(acl):
        port = Port(index, queue_limit=4)
        port.bind_filter(rule.program)
        demux.attach(port)
        ports.append(port)
    start = time.perf_counter()
    demux.deliver(packets[0])
    cold = time.perf_counter() - start
    rng = random.Random(f"rebind-scale:{SEED}")
    times = []
    for serial in range(REBINDS):
        slot = rng.randrange(rules)
        rule = gen.fresh_rule(rng, slot, serial)
        port = ports[slot]
        probe = rule.packet(serial)
        start = time.perf_counter()
        demux.detach(port)
        port.bind_filter(rule.program)
        demux.attach(port)
        report = demux.deliver(probe)
        times.append(time.perf_counter() - start)
        if report.accepted_by != (slot,):
            raise AssertionError(f"probe went to {report.accepted_by}, not {slot}")
        port.read_packets()
    times.sort()
    return {
        "rules": rules,
        "cold_compile_ms": cold * 1e3,
        "rebind_ms_p50": _percentile(times, 50) * 1e3,
        "rebind_ms_p95": _percentile(times, 95) * 1e3,
        "rebind_ms_mean": sum(times) / len(times) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", type=int, nargs="+", default=[128, 1000, 10000])
    args = parser.parse_args(argv)
    for rules in args.rules:
        child = (
            f"import json, sys; sys.path.insert(0, {HERE!r}); "
            f"import rebind_scale; print(json.dumps(rebind_scale.measure({rules})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            check=True, capture_output=True, text=True,
        ).stdout
        row = json.loads(out)
        print(
            f"{rules:>6} rules: re-bind p50 {row['rebind_ms_p50']:.3f} ms, "
            f"p95 {row['rebind_ms_p95']:.3f} ms, "
            f"mean {row['rebind_ms_mean']:.3f} ms "
            f"(cold compile {row['cold_compile_ms']:.0f} ms)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
