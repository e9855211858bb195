"""Every metric the benchmark reports, by name.

One table for the end-to-end metrics (with the bound by which each may
worsen before a change counts as a regression) and one for the
per-layer metrics (with the end-to-end metric and workload each should
move — written down before measuring, per the choosing-metrics guide).
``BENCHMARK.json`` is :func:`contract` rendered to a file; the smoke
test keeps the two equal.
"""

from __future__ import annotations

from .workloads import NAMES

__all__ = ["RUN_SECONDS", "WHY", "END_TO_END", "PER_LAYER", "LAYERS", "contract"]

RUN_SECONDS = 10

WHY = {
    "acl_classify": "1000-rule ACL under Engine.IR, scalar deliver: core.demux, "
    "the generated classifier and core.port do all the work, sim/net none",
    "acl_churn": "128-rule IR set re-binding never-seen filters between bursts: "
    "the same layer written to, so validator/ir/opt/irgen compile cost dominates",
    "recv_path": "table 6-8 kernel-demux receive path, 128-byte frames, CHECKED "
    "engine: sim.clock/kernel/process, net.* and core.device; no compile path",
    "bsp_bulk": "user-level Pup/BSP stream over the packet filter: send path, "
    "acks both ways, retransmit-timer churn; protocols.bsp body time is largest",
    "flow_storm_s1": "4-segment bridged storm, thrashing flow cache, NIC overflow "
    "drops, windowed stepping at shards=1: the whole-world target, zero IPC",
    "flow_storm_s2": "the identical spec and seed at shards=2: only sim.shard and "
    "sim.orchestrator IPC differs from flow_storm_s1; digest must equal it",
}

ALL = NAMES
WORLDS = ("recv_path", "bsp_bulk", "flow_storm_s1", "flow_storm_s2")

# name, unit, better, bound, workloads it is defined on, in BENCHMARK.json
#
# The driver's contract wants every end-to-end metric on every workload
# and none that can read 0, so the three that exist on some workloads
# only, or are 0 when all is well, are reported by ``python -m
# perfbench`` and held to their bound by ``--compare``, not by the
# driver (which sees them as unbounded rows of the traced run, and
# ``failed_share`` as its own ``failed``/``attempted`` keys).
END_TO_END = (
    ("pkts_per_s", "1/s", "higher", 0.25, ALL, True),
    ("setup_s", "s", "lower", 0.25, ALL, True),
    ("peak_rss_mb", "MiB", "lower", 0.05, ALL, True),
    ("rebind_ms_p50", "ms", "lower", 0.10, ("acl_churn",), False),
    ("rebind_ms_p95", "ms", "lower", 0.10, ("acl_churn",), False),
    ("paper_err_pct", "%", "lower", 0.0, ("recv_path", "bsp_bulk"), False),
    ("failed_share", "share", "lower", 0.0, ALL, False),
)

LAYERS = (
    "core.validator", "core.ir", "core.opt", "core.irgen", "core.demux",
    "core.interpreter", "core.port", "core.device", "sim.world", "sim.clock",
    "sim.kernel",
    "sim.process", "protocols.bsp", "net.nic", "net.medium", "sim.topology",
    "sim.shard", "sim.orchestrator",
    # not layers of the program: the harness's own loop, and whatever a
    # later refactor adds that this table does not know yet
    "perfbench", "other",
)

_COMPILE = "rebind_ms_p50/p95 on acl_churn, setup_s on acl_classify; none on worlds"
_WORLD = "pkts_per_s on recv_path, bsp_bulk, flow_storm_s1; none on acl_*"
_MOVES = {
    "core.validator": _COMPILE,
    "core.ir": _COMPILE,
    "core.opt": _COMPILE,
    "core.irgen": _COMPILE,
    "core.demux": "pkts_per_s on acl_classify; at most 5% of recv_path",
    "core.interpreter": "pkts_per_s on recv_path, flow_storm_s1, by its share",
    "core.port": "pkts_per_s on acl_classify (enqueue), recv_path (read side)",
    "core.device": "pkts_per_s on recv_path, bsp_bulk",
    "sim.world": "pkts_per_s on recv_path, bsp_bulk (the run_until_done loop)",
    "sim.clock": _WORLD + "; bsp_bulk also through cancel churn",
    "sim.kernel": _WORLD,
    "sim.process": "pkts_per_s on recv_path, bsp_bulk",
    "protocols.bsp": "pkts_per_s on bsp_bulk only",
    "net.nic": _WORLD + "; rx_drops nonzero only on flow_storm_*",
    "net.medium": _WORLD,
    "sim.topology": "pkts_per_s on flow_storm_*",
    "sim.shard": "pkts_per_s on flow_storm_s2 only",
    "sim.orchestrator": "pkts_per_s on flow_storm_s2; self_s small on flow_storm_s1",
    "perfbench": "nothing: the harness loop and wrapper overhead it absorbs",
    "other": "nothing: spans whose module is not in this table",
}

# name, unit, better, what it should move
PER_LAYER = tuple(
    (f"{layer}.self_share", "share", "lower", _MOVES[layer]) for layer in LAYERS
) + (
    ("core.validator.validate_us", "us", "lower", _COMPILE),
    ("core.validator.calls", "count", "lower", _COMPILE),
    ("core.ir.lower_us", "us", "lower", _COMPILE),
    ("core.opt.cse_ms", "ms", "lower", _COMPILE),
    ("core.opt.tree_ms", "ms", "lower", _COMPILE),
    ("core.opt.nodes_before", "count", "lower", _COMPILE),
    ("core.opt.nodes_after", "count", "lower", _COMPILE),
    ("core.irgen.compile_ms", "ms", "lower", _COMPILE),
    ("core.irgen.compiles", "count", "lower", _COMPILE),
    ("core.irgen.dispatch_depth", "count", "lower", _COMPILE),
    ("core.irgen.chains", "count", "lower", _COMPILE),
    ("core.demux.deliver_ns", "ns", "lower", _MOVES["core.demux"]),
    ("core.demux.deliver_batch_ns", "ns", "lower",
     "nothing timed: the batch-path trial reads it beside deliver_ns"),
    ("core.demux.attach_us", "us", "lower", "rebind_ms_* on acl_churn"),
    ("core.demux.detach_us", "us", "lower", "rebind_ms_* on acl_churn"),
    ("core.demux.predicates_per_pkt", "count", "lower", _MOVES["core.demux"]),
    ("core.demux.flow_cache_hit_rate", "share", "higher",
     "pkts_per_s on flow_storm_*"),
    ("core.interpreter.evaluate_ns", "ns", "lower", _MOVES["core.interpreter"]),
    ("core.interpreter.instructions_per_pkt", "count", "lower",
     _MOVES["core.interpreter"]),
    ("core.port.enqueue_ns", "ns", "lower", "pkts_per_s on acl_classify"),
    ("core.port.read_packets_ns", "ns", "lower", "pkts_per_s on recv_path"),
    ("core.port.overflow_drops", "count", "lower", "none: 0 except flow_storm_*"),
    ("core.port.pkts_per_read", "count", "higher", "pkts_per_s on flow_storm_*"),
    ("core.device.packet_arrived_ns", "ns", "lower", _MOVES["core.device"]),
    ("core.device.read_ns", "ns", "lower", _MOVES["core.device"]),
    ("core.device.write_ns", "ns", "lower", "pkts_per_s on bsp_bulk"),
    ("core.device.ioctl_us", "us", "lower", "pkts_per_s on bsp_bulk (SETTIMEOUT)"),
    ("sim.clock.step_ns", "ns", "lower", _MOVES["sim.clock"]),
    ("sim.clock.schedule_ns", "ns", "lower", _MOVES["sim.clock"]),
    ("sim.clock.events", "count", "lower", _MOVES["sim.clock"]),
    ("sim.clock.events_per_s", "1/s", "higher", _MOVES["sim.clock"]),
    ("sim.clock.events_per_pkt", "count", "lower", _MOVES["sim.clock"]),
    ("sim.clock.cancelled_share", "share", "lower", "pkts_per_s on bsp_bulk"),
    ("sim.kernel.network_input_ns", "ns", "lower", _WORLD),
    ("sim.kernel.network_output_ns", "ns", "lower", _WORLD),
    ("sim.kernel.account_ns", "ns", "lower", _WORLD),
    ("sim.kernel.account_calls_per_pkt", "count", "lower", _WORLD),
    ("sim.kernel.callback_ns_per_pkt", "ns", "lower", _WORLD),
    ("sim.process.body_ns_per_resume", "ns", "lower", _MOVES["sim.process"]),
    ("sim.process.resumes_per_pkt", "count", "lower", _MOVES["sim.process"]),
    ("protocols.bsp.body_ns_per_pkt", "ns", "lower", _MOVES["protocols.bsp"]),
    ("protocols.bsp.retransmits", "count", "lower", _MOVES["protocols.bsp"]),
    ("net.nic.receive_ns", "ns", "lower", _WORLD),
    ("net.nic.transmit_ns", "ns", "lower", _WORLD),
    ("net.nic.rx_drops", "count", "lower", "none: nonzero only on flow_storm_*"),
    ("net.medium.transmit_ns", "ns", "lower", _WORLD),
    ("net.medium.frames", "count", "lower", _WORLD),
    ("sim.topology.windows", "count", "lower", _MOVES["sim.topology"]),
    ("sim.topology.frames_forwarded", "count", "lower", _MOVES["sim.topology"]),
    ("sim.topology.events_per_window", "count", "higher", _MOVES["sim.topology"]),
    ("sim.shard.grant_wait_s", "s", "lower", _MOVES["sim.shard"]),
    ("sim.shard.null_grants", "count", "lower", _MOVES["sim.shard"]),
    ("sim.shard.egress_per_window", "count", "lower", _MOVES["sim.shard"]),
    ("sim.shard.step_busy_s", "s", "lower", _MOVES["sim.shard"]),
    ("sim.orchestrator.self_s", "s", "lower", _MOVES["sim.orchestrator"]),
    ("sim.orchestrator.wall_per_window_us", "us", "lower",
     _MOVES["sim.orchestrator"]),
    ("sim.orchestrator.speedup_vs_s1", "ratio", "higher",
     "pkts_per_s on flow_storm_s2"),
    ("sim.ledger.overhead_pct", "%", "lower",
     "none of the timed metrics (the ledger is off there): it guards free-when-off"),
    ("trace.overhead_pct", "%", "lower", "none"),
    ("trace.self_sum_ratio", "ratio", "higher",
     "none: self times over traced wall, 1 when spans nest properly"),
    ("trace.spans", "count", "lower", "none"),
    ("trace.wall_s", "s", "lower",
     "none: the traced wall every self_share is a share of"),
    # End-to-end metrics that exist on some workloads only (see above).
    ("rebind_ms_p50", "ms", "lower", "end to end on acl_churn, untraced pass"),
    ("rebind_ms_p95", "ms", "lower", "end to end on acl_churn, untraced pass"),
    ("paper_err_pct", "%", "lower",
     "end to end on recv_path, bsp_bulk: simulated time, repeats exactly"),
)


def contract() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in NAMES],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _, listed in END_TO_END
            if listed
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }
