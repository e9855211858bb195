"""Every engine × cache agrees with CHECKED on derived boundary packets.

:func:`repro.difftest.boundary_packets` builds each program's packets
from its own literals: every tested word at its literal, ± 1, 0 and
0xFFFF, every length from 0 to one past the highest byte read.  For a
program that only compares words with literals, that covers every
truth-value boundary it has, so agreement is exhaustive rather than
sampled.  Each packet is delivered as ``bytes``, ``bytearray`` and
``memoryview``: the generated code slices and indexes all three.

Each program is bound alone, so the reference engine runs one filter a
packet and the whole check stays tier-1 sized; the multi-rule sets go
through the smoke matrix (``test_matrix_smoke.py``).
"""

from __future__ import annotations

import pytest

from repro.core import library, paper_filters
from repro.difftest import boundary_packets, full_matrix, run_matrix, with_drains
from ruleset_gen import generate_ruleset

PAPER_FILTERS = {
    "figure_3_8": paper_filters.figure_3_8_pup_type_range(),
    "figure_3_9": paper_filters.figure_3_9_pup_socket_35(),
    "pup_socket_0x12345678": paper_filters.pup_socket_filter(0x12345678),
    "tcp_port_23": library.tcp_port_filter(23),
    "udp_port_53": library.udp_port_filter(53),
    "ip_host": library.ip_host_filter(0x0A000001),
    "ip_conversation": library.ip_conversation_filter(0x0A000001, 0x0A000002),
    "ethertype_ip": library.ethertype_filter(0x0800),
}

ACL_RULES = 100


def stream(program) -> list[tuple]:
    events = []
    for packet in boundary_packets(program):
        for kind in (bytes, bytearray, memoryview):
            events.append(("packet", kind(packet)))
    return with_drains(events, 6)


def agree(program) -> int:
    """Run every configuration over ``program``'s boundary packets and
    fail on any divergence; returns the deliveries made."""
    events = stream(program)
    report = run_matrix([program], events, full_matrix())
    assert report.ok, report.summary()
    return len(report.results) * sum(e[0] == "packet" for e in events)


@pytest.mark.parametrize("name", sorted(PAPER_FILTERS))
def test_paper_and_library_filters(name):
    assert agree(PAPER_FILTERS[name])


def test_acl_rules():
    programs, _ = generate_ruleset(ACL_RULES, seed=0)
    deliveries = sum(agree(program) for program in programs)
    # 16 cuts of the base packet plus 28 variants, each whole and cut,
    # per rule; three buffer types; eight configurations.
    assert deliveries >= ACL_RULES * 60 * 3 * 8


def test_packets_cover_every_boundary():
    """The ACL rule's packets: the base packet at every length, and each
    tested word at each boundary value, whole and odd-tailed."""
    programs, tuples = generate_ruleset(1, seed=0)
    packets = boundary_packets(programs[0])
    whole = b"".join(w.to_bytes(2, "big") for w in tuples[0]) + b"\x00"
    assert packets[: len(whole) + 1] == [
        whole[:cut] for cut in range(len(whole) + 1)
    ]
    for index, literal in enumerate(tuples[0]):
        for value in (literal + 1, literal - 1, 0, 0xFFFF):
            words = list(tuples[0])
            words[index] = value & 0xFFFF
            packet = b"".join(w.to_bytes(2, "big") for w in words) + b"\x00"
            assert packet in packets and packet[:-2] in packets
