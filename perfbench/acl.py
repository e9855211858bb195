"""``acl_classify`` and ``acl_churn``: the classifier with no simulator.

Both bind a 5-tuple ACL under ``Engine.IR`` straight into a
:class:`PacketFilterDemux` and drive it from a Python loop, so ``core.*``
does all the work and ``sim``/``net`` none.  ``acl_classify`` only
reads the bound set (compile cost sits in ``setup_s``);
``acl_churn`` writes beside reading: every few thousand packets one
port re-binds a filter the process has never seen, which is the paper's
own case — every new Pup or VMTP connection binds a filter.

The demultiplexers are built with ``reorder_same_priority=False``, as
every existing throughput benchmark in the repo does.  Filter priority
is a byte, so a 1 000-rule set necessarily shares priorities; with the
busier-first reorder on, striding traffic changes the accept-count order
every 64 packets and ``Engine.IR`` recompiles the whole set each time.
That pathology deserves its own issue, not a place in this load.
"""

from __future__ import annotations

import random
import time

from repro.core import Engine, PacketFilterDemux, Port

from . import gen
from .stats import percentile, summary
from .workloads import Check, Rep, Workload

__all__ = ["AclClassify", "AclChurn"]

QUEUE_LIMIT = 16
"""Per-port queue bound; ports are drained every this many rounds, so
no packet is ever dropped on overflow and memory stays bounded."""

_clock = time.perf_counter_ns


def bind(rules, engine) -> tuple[PacketFilterDemux, list[Port]]:
    demux = PacketFilterDemux(engine=engine, reorder_same_priority=False)
    ports = []
    for index, rule in enumerate(rules):
        port = Port(index, queue_limit=QUEUE_LIMIT)
        port.bind_filter(rule.program)
        demux.attach(port)
        ports.append(port)
    return demux, ports


def drain(ports) -> int:
    """Read every port dry — the consumer side; returns packets read."""
    return sum(len(port.read_packets()) for port in ports)


def accepting(report) -> tuple:
    return tuple(sorted(report.accepted_by + report.dropped_by + report.nobuf_by))


def compare(check: Check, demux, ports, reference, ref_ports, packets) -> None:
    """Each packet's accepting-port set must equal the CHECKED engine's."""
    for packet in packets:
        got = accepting(demux.deliver(packet))
        want = accepting(reference.deliver(packet))
        check.expect(
            got == want, f"{packet.hex()}: ir ports {got}, checked ports {want}"
        )
    drain(ports)
    drain(ref_ports)


def ir_counts(demux) -> dict:
    stats = demux.ir_stats
    return {
        "nodes_before": stats.nodes_before_cse,
        "nodes_after": stats.nodes_after_cse,
        "dispatch_depth": stats.dispatch_depth,
        "chains": stats.chains,
    }


class AclClassify(Workload):
    name = "acl_classify"

    def __init__(self, seed, size, scale) -> None:
        super().__init__(seed, size, scale)
        self.rules = gen.acl_rules(size["rules"], seed)
        self.packets, _ = gen.acl_round(self.rules, seed)
        self.demux, self.ports = bind(self.rules, Engine.IR)
        # The first classification compiles the set; what the round
        # hands to ports is the fixed packet count of the job.
        for packet in self.packets:
            self.demux.deliver(packet)
        self.accepted_per_round = drain(self.ports)

    def repeat(self) -> Rep:
        rounds = self.size["rounds"]
        deliver, packets, ports = self.demux.deliver, self.packets, self.ports
        predicates = self.demux.total_predicates_tested
        read = 0
        start = _clock()
        for done in range(1, rounds + 1):
            for packet in packets:
                deliver(packet)
            if done % QUEUE_LIMIT == 0 or done == rounds:
                read += drain(ports)
        wall = _clock() - start
        return Rep(
            packets=read,
            wall_ns=wall,
            counts={
                "offered": rounds * len(packets),
                "expected": rounds * self.accepted_per_round,
                "predicates": self.demux.total_predicates_tested - predicates,
                "overflow_drops": sum(
                    port.stats.dropped_overflow for port in ports
                ),
                **ir_counts(self.demux),
            },
        )

    def check(self, reps: list[Rep]) -> Check:
        check = Check()
        for rep in reps:
            check.expect(
                rep.packets == rep.counts["expected"]
                and rep.counts["overflow_drops"] == 0,
                f"read {rep.packets} packets, job fixes {rep.counts['expected']}",
            )
        reference, ref_ports = bind(self.rules, Engine.CHECKED)
        compare(
            check, self.demux, self.ports, reference, ref_ports,
            dict.fromkeys(self.packets),
        )
        return check

    def layer_extras(self, traced) -> dict[str, float]:
        """The same traffic through ``deliver_batch`` at burst 64, in a
        traced pass of its own — the row the batch-path trial reads
        next to ``core.demux.deliver_ns``."""
        rounds = self.size["rounds"]
        packets, ports = self.packets, self.ports
        bursts = [packets[i:i + 64] for i in range(0, len(packets), 64)]

        def batch_pass():
            deliver_batch = self.demux.deliver_batch  # the traced one
            for done in range(1, rounds + 1):
                for burst in bursts:
                    deliver_batch(burst)
                if done % QUEUE_LIMIT == 0 or done == rounds:
                    drain(ports)

        spans = traced(batch_pass)["keys"]["core.demux.deliver_batch"]
        return {
            "core.demux.deliver_batch_ns":
                spans["total_ns"] / (rounds * len(packets)),
        }


class AclChurn(Workload):
    name = "acl_churn"

    SAMPLE = 64  #: packets compared against CHECKED after each re-bind
    PASSES = 24  #: untraced repetitions behind the traced run's percentiles

    def __init__(self, seed, size, scale) -> None:
        super().__init__(seed, size, scale)
        self.rules = gen.acl_rules(size["rules"], seed)
        self.packets, slots = gen.acl_round(self.rules, seed)
        self.position = {slot: i for i, slot in enumerate(slots) if slot >= 0}
        self.demux, self.ports = bind(self.rules, Engine.IR)
        self.reference, self.ref_ports = bind(self.rules, Engine.CHECKED)
        self.rng = random.Random(f"acl-churn:{seed}")
        self.sampler = random.Random(f"acl-churn-sample:{seed}")
        self.serial = 0
        self.gate = Check()
        for packet in self.packets:
            self.demux.deliver(packet)
        drain(self.ports)

    def repeat(self) -> Rep:
        rebinds, rounds = self.size["rebinds"], self.size["rounds"]
        demux, ports, packets = self.demux, self.ports, self.packets
        deliver = demux.deliver
        wall = read = predicates = 0
        rebind_ms = []
        for _ in range(rebinds):
            slot = self.rng.randrange(len(self.rules))
            rule = gen.fresh_rule(self.rng, slot, self.serial)
            self.serial += 1
            port = ports[slot]
            probe = rule.packet(self.serial)

            tested = demux.total_predicates_tested
            start = _clock()
            demux.detach(port)
            port.bind_filter(rule.program)
            demux.attach(port)
            deliver(probe)              # compiles the new set
            bound = _clock()
            packets[self.position[slot]] = probe
            for _ in range(rounds):
                for packet in packets:
                    deliver(packet)
            read += drain(ports)
            wall += _clock() - start
            predicates += demux.total_predicates_tested - tested
            rebind_ms.append((bound - start) / 1e6)

            if not self.verify:
                continue
            # Untimed: mirror the re-bind into the CHECKED reference and
            # compare a sample that always holds the new rule's packet.
            mirror = self.ref_ports[slot]
            self.reference.detach(mirror)
            mirror.bind_filter(rule.program)
            self.reference.attach(mirror)
            sample = [probe] + self.sampler.sample(
                packets, min(self.SAMPLE - 1, len(packets))
            )
            compare(
                self.gate, demux, ports, self.reference, self.ref_ports, sample
            )
        return Rep(
            packets=read,
            wall_ns=wall,
            counts={
                "offered": rebinds * (rounds * len(packets) + 1),
                "rebinds": rebinds,
                "predicates": predicates,
                "overflow_drops": sum(
                    port.stats.dropped_overflow for port in ports
                ),
                **ir_counts(demux),
            },
            samples={"rebind_ms": rebind_ms},
        )

    def check(self, reps: list[Rep]) -> Check:
        check = self.gate
        per_rebind = None
        for rep in reps:
            # Every rule's packet is accepted each round, plus the probe.
            handed = rep.packets / rep.counts["rebinds"]
            per_rebind = handed if per_rebind is None else per_rebind
            check.expect(
                handed == per_rebind and rep.counts["overflow_drops"] == 0,
                f"{handed} packets per re-bind, first repetition had {per_rebind}",
            )
        return check

    def end_to_end_extras(self, reps: list[Rep], factors: list[float]) -> dict:
        ordered = sorted(
            ms / factor
            for rep, factor in zip(reps, factors)
            for ms in rep.samples["rebind_ms"]
        )
        return {
            "rebind_ms_p50": summary(ordered),
            "rebind_ms_p95":
                {**summary([percentile(ordered, 95)]), "n": len(ordered)},
        }

    def layer_extras(self, traced) -> dict[str, float]:
        """Untraced repetitions of their own, so the re-bind percentiles
        the traced run reports are not inflated by the tracer."""
        fresh = sorted(
            ms
            for _ in range(self.PASSES)
            for ms in self.repeat().samples["rebind_ms"]
        )
        return {
            "rebind_ms_p50": percentile(fresh, 50),
            "rebind_ms_p95": percentile(fresh, 95),
        }
