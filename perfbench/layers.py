"""Per-layer metrics from a traced repetition.

Input: the tracer's aggregate (per key: calls, inclusive ns, self ns),
the traced repetition's exact counters, an untraced repetition of the
same size (for the figures tracing would inflate) and whatever the
workload measured in passes of its own.  Output: every name in
:data:`perfbench.catalog.PER_LAYER`, 0 where the workload never enters
the layer.
"""

from __future__ import annotations

from .catalog import LAYERS, PER_LAYER
from .workloads import Rep

__all__ = ["layer_of", "merge_aggregates", "per_layer"]


def layer_of(key: str) -> str:
    """``core.demux.deliver`` -> ``core.demux``; callbacks are keyed
    ``<module>.cb:<function>`` and land in the module's layer."""
    layer = key.rsplit(".", 1)[0]
    return layer if layer in LAYERS else "other"


def merge_aggregates(parent: dict, workers: list[dict]) -> dict:
    """Add shard workers' per-key totals to the parent's.

    The traced wall stays the parent's: with workers running beside it,
    shares are CPU time over wall and may sum past 1.
    """
    keys = {name: dict(entry) for name, entry in parent["keys"].items()}
    for worker in workers:
        for name, entry in worker["keys"].items():
            into = keys.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for field in into:
                into[field] += entry[field]
    return {
        "wall_ns": parent["wall_ns"],
        "spans": parent["spans"] + sum(w["spans"] for w in workers),
        "keys": keys,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    aggregate: dict, own: dict, traced: Rep, plain: Rep, extras: dict
) -> dict[str, float]:
    """``aggregate`` covers every process, ``own`` only this one (the
    nesting check is per process)."""
    keys = aggregate["keys"]
    wall = aggregate["wall_ns"]

    def calls(key):
        return keys.get(key, {}).get("calls", 0)

    def total(key):
        return keys.get(key, {}).get("total_ns", 0)

    def self_ns(key):
        return keys.get(key, {}).get("self_ns", 0)

    def per_call(key):
        return _ratio(total(key), calls(key))

    def matching(part):
        return [k for k in keys if part in k]

    counts = traced.counts
    packets = traced.packets
    events = counts.get("events", 0)
    windows = counts.get("windows", 0)
    # packets the demultiplexer classified: offered by the harness loop
    # (acl_*) or seen off the wire (worlds)
    classified = counts.get("offered") or counts.get("seen", 0)
    bodies = matching(".body")
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)

    out = {name: 0.0 for name, *_ in PER_LAYER}
    shares = dict.fromkeys(LAYERS, 0)
    for key, entry in keys.items():
        shares[layer_of(key)] += entry["self_ns"]
    for layer, own_ns in shares.items():
        out[f"{layer}.self_share"] = _ratio(own_ns, wall)

    out.update({
        "core.validator.validate_us": per_call("core.validator.validate") / 1e3,
        "core.validator.calls": calls("core.validator.validate"),
        "core.ir.lower_us": per_call("core.ir.lower_program") / 1e3,
        "core.opt.cse_ms": per_call("core.opt.cse_filter_set") / 1e6,
        "core.opt.tree_ms": per_call("core.opt.build_dispatch_tree") / 1e6,
        "core.opt.nodes_before": counts.get("nodes_before", 0),
        "core.opt.nodes_after": counts.get("nodes_after", 0),
        "core.irgen.compile_ms": per_call("core.irgen.compile_ir_set") / 1e6,
        "core.irgen.compiles": calls("core.irgen.compile_ir_set"),
        "core.irgen.dispatch_depth": counts.get("dispatch_depth", 0),
        "core.irgen.chains": counts.get("chains", 0),
        "core.demux.deliver_ns": per_call("core.demux.deliver"),
        "core.demux.attach_us": per_call("core.demux.attach") / 1e3,
        "core.demux.detach_us": per_call("core.demux.detach") / 1e3,
        "core.demux.predicates_per_pkt":
            _ratio(counts.get("predicates", 0), classified),
        "core.demux.flow_cache_hit_rate": _ratio(hits, hits + misses),
        "core.interpreter.evaluate_ns": per_call("core.interpreter.evaluate"),
        "core.interpreter.instructions_per_pkt":
            _ratio(counts.get("instructions", 0), classified),
        "core.port.enqueue_ns": per_call("core.port.enqueue"),
        "core.port.read_packets_ns": per_call("core.port.read_packets"),
        "core.port.overflow_drops": counts.get("overflow_drops", 0),
        "core.port.pkts_per_read": _ratio(
            counts.get("read_packets", packets), calls("core.port.read_packets")
        ),
        "core.device.packet_arrived_ns": per_call("core.device.packet_arrived"),
        "core.device.read_ns": per_call("core.device.read"),
        "core.device.write_ns": per_call("core.device.write"),
        "core.device.ioctl_us": per_call("core.device.ioctl") / 1e3,
        "sim.clock.step_ns":
            _ratio(self_ns("sim.clock.step"), calls("sim.clock.step")),
        "sim.clock.schedule_ns": _ratio(
            self_ns("sim.clock.schedule_at"), calls("sim.clock.schedule_at")
        ),
        "sim.clock.events": events,
        "sim.clock.events_per_s": _ratio(events, plain.wall_ns / 1e9),
        "sim.clock.events_per_pkt": _ratio(events, packets),
        "sim.clock.cancelled_share": _ratio(
            calls("sim.clock.cancel"), calls("sim.clock.schedule_at")
        ),
        "sim.kernel.network_input_ns": per_call("sim.kernel.network_input"),
        "sim.kernel.network_output_ns": per_call("sim.kernel.network_output"),
        "sim.kernel.account_ns": per_call("sim.kernel.account"),
        "sim.kernel.account_calls_per_pkt":
            _ratio(calls("sim.kernel.account"), packets),
        "sim.kernel.callback_ns_per_pkt": _ratio(
            sum(total(k) for k in matching("sim.kernel.cb:")), packets
        ),
        "sim.process.body_ns_per_resume": _ratio(
            sum(total(k) for k in bodies), sum(calls(k) for k in bodies)
        ),
        "sim.process.resumes_per_pkt":
            _ratio(sum(calls(k) for k in bodies), packets),
        "protocols.bsp.body_ns_per_pkt":
            _ratio(total("protocols.bsp.body"), packets),
        "protocols.bsp.retransmits": counts.get("retransmits", 0),
        "net.nic.receive_ns": per_call("net.nic.receive"),
        "net.nic.transmit_ns": per_call("net.nic.transmit"),
        "net.nic.rx_drops": counts.get("rx_drops", 0),
        "net.medium.transmit_ns": per_call("net.medium.transmit"),
        "net.medium.frames": counts.get("frames", 0),
        "sim.topology.windows": windows,
        "sim.topology.frames_forwarded": counts.get("frames_forwarded", 0),
        "sim.topology.events_per_window": _ratio(events, windows),
        "sim.shard.grant_wait_s": plain.sim.get("grant_wait_s", 0.0),
        "sim.shard.null_grants": counts.get("null_grants", 0),
        "sim.shard.egress_per_window":
            _ratio(counts.get("egress_frames", 0), windows),
        "sim.shard.step_busy_s": _ratio(
            total("sim.shard.step") / 1e9, traced.sim.get("shards", 0)
        ),
        "sim.orchestrator.self_s": self_ns("sim.orchestrator.run_topology") / 1e9,
        "sim.orchestrator.wall_per_window_us":
            plain.sim.get("wall_per_window_us", 0.0),
        "trace.overhead_pct":
            100.0 * _ratio(traced.wall_ns - plain.wall_ns, plain.wall_ns),
        "trace.self_sum_ratio": _ratio(
            sum(entry["self_ns"] for entry in own["keys"].values()),
            own["wall_ns"],
        ),
        "trace.spans": aggregate["spans"],
        "trace.wall_s": wall / 1e9,
    })
    unknown = set(extras) - set(out)
    if unknown:
        raise KeyError(f"extras not in the catalog: {sorted(unknown)}")
    out.update(extras)
    return out
