"""Per-host event counters — the quantities figures 2-1/2-2/3-4/3-5 draw.

The paper's figures 2-1, 2-2, 3-4 and 3-5 are diagrams of *how many*
context switches, system calls and data transfers each demultiplexing
model costs per packet; these counters make those diagrams measurable.
Benchmarks snapshot/diff them around a workload and report events per
packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

__all__ = ["KernelStats", "merge_stats", "nearest_rank"]


@dataclass
class KernelStats:
    """Cumulative counters for one simulated kernel."""

    cpu_time: float = 0.0          #: total CPU seconds charged
    context_switches: int = 0
    syscalls: int = 0
    domain_crossings: int = 0      #: user<->kernel boundary crossings
    copies: int = 0                #: kernel<->user or pipe data transfers
    bytes_copied: int = 0
    wakeups: int = 0
    interrupts: int = 0            #: received-frame interrupts serviced
    frames_sent: int = 0
    frames_received: int = 0
    packets_unclaimed: int = 0     #: frames no protocol or filter wanted
    signals_posted: int = 0
    filter_predicates: int = 0     #: filters applied across all packets
    filter_instructions: int = 0   #: interpreter steps across all packets

    def snapshot(self) -> "KernelStats":
        """A copy, for before/after differencing around a workload."""
        return KernelStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "KernelStats") -> "KernelStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return KernelStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def rates(self, earlier: "KernelStats", seconds: float) -> dict[str, float]:
        """Per-second rates of everything accumulated since ``earlier``.

        The bench scenarios' windowed-rate helper: snapshot before, call
        after, no hand-written per-field subtraction.  ``cpu_time``'s
        rate is CPU seconds per second — utilization.  (The telemetry
        sampler records the counters themselves and takes rates with
        :meth:`repro.sim.telemetry.Series.rate`.)
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        delta = self.delta(earlier)
        return {
            f.name: getattr(delta, f.name) / seconds for f in fields(delta)
        }

    def per_packet(self, packets: int) -> dict[str, float]:
        """Events per packet — the unit the paper's figures use."""
        if packets <= 0:
            raise ValueError("packets must be positive")
        return {
            f.name: getattr(self, f.name) / packets for f in fields(self)
        }

    def merge(self, *others: "KernelStats") -> "KernelStats":
        """Field-wise sum — the aggregate view over several kernels.

        Returns a new instance; the operands are untouched.  Summation
        order follows the argument order, so merging shard results in a
        fixed (segment-name) order reproduces the float sums bitwise.
        """
        merged = self.snapshot()
        for other in others:
            for f in fields(merged):
                setattr(
                    merged, f.name,
                    getattr(merged, f.name) + getattr(other, f.name),
                )
        return merged


def merge_stats(
    maps: Iterable[Mapping[str, KernelStats]],
) -> dict[str, KernelStats]:
    """Combine per-host stats maps from disjoint worlds (shards).

    Hosts are whole units — two shards may never both account for the
    same host, so a duplicate name is a partitioning bug and raises
    rather than silently double-counting.  Values are copied
    (``snapshot``); an empty input yields an empty map.
    """
    merged: dict[str, KernelStats] = {}
    for stats_map in maps:
        for host, stats in stats_map.items():
            if host in merged:
                raise ValueError(
                    f"host {host!r} appears in more than one stats map"
                )
            merged[host] = stats.snapshot()
    return merged


def nearest_rank(
    samples: Iterable[float], quantiles: Iterable[float]
) -> dict[float, float]:
    """Nearest-rank quantiles of ``samples``: for each ``q`` in
    ``quantiles``, the ``ceil(q * n)``-th smallest of the ``n`` samples
    (the smallest for ``q == 0``).  Empty when there are no samples.

    The one percentile estimator: the ledger's span latencies and the
    sync profile's wall times both report through it.
    """
    data = sorted(samples)
    n = len(data)
    if not n:
        return {}
    return {q: data[min(n - 1, max(0, math.ceil(q * n) - 1))] for q in quantiles}
