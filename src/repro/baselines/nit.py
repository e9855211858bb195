"""Sun's NIT, as the paper found it — the single-field straw man.

Section 5.4's footnote: "[Sun's etherfind] is based on Sun's Network
Interface Tap (NIT) facility, which is similar to the packet filter but
only allows filtering on a single packet field!  (Sun expects to
include our packet-filtering mechanism in a future release of NIT.)"

This module implements that weaker design so its cost can be measured:
a kernel demultiplexer whose per-port predicate is exactly one
``(word offset, value)`` pair, tried in attach order.  A protocol that discriminates
on one field (an Ethernet type) fits; anything finer — a Pup socket
*and* the Pup type, a VMTP client *and* kind — cannot be expressed, so
a NIT-based program must over-capture and finish demultiplexing in user
space, paying the figure 2-1 costs the packet filter exists to avoid.

``benchmarks/test_ablation_nit_single_field.py`` measures the price.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.port import Port
from ..core.words import get_word

__all__ = ["SingleFieldPredicate", "NITDemux"]


@dataclass(frozen=True)
class SingleFieldPredicate:
    """All NIT lets you say: ``packet.word[offset] == value``."""

    offset: int
    value: int

    def matches(self, packet: bytes) -> bool:
        try:
            return get_word(packet, self.offset) == self.value
        except IndexError:
            return False


class NITDemux:
    """A NIT-style demultiplexer: one field test per port.

    Interface parallels :class:`repro.core.demux.PacketFilterDemux`
    closely enough for the benchmarks to swap them; what it *cannot*
    parallel is expressiveness, which is the point.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[SingleFieldPredicate, Port]] = []
        self.packets_seen = 0
        self.packets_unclaimed = 0
        self.total_predicates_tested = 0

    def attach(self, port: Port, predicate: SingleFieldPredicate) -> None:
        self._entries.append((predicate, port))

    def deliver(self, packet: bytes) -> bool:
        self.packets_seen += 1
        tested = 0
        for predicate, port in self._entries:
            tested += 1
            if predicate.matches(packet):
                self.total_predicates_tested += tested
                port.enqueue(packet)
                return True
        self.total_predicates_tested += tested
        self.packets_unclaimed += 1
        return False

    @property
    def mean_predicates_tested(self) -> float:
        if self.packets_seen == 0:
            return 0.0
        return self.total_predicates_tested / self.packets_seen
