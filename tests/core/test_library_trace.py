"""Tests for the common-filter library and the evaluation tracer."""

import pytest

from repro.core.interpreter import FaultCode, evaluate
from repro.core.library import (
    ethertype_filter,
    ip_conversation_filter,
    ip_host_filter,
    ip_protocol_filter,
    tcp_port_filter,
    udp_port_filter,
)
from repro.core.paper_filters import figure_3_9_pup_socket_35
from repro.core.trace import trace_evaluation
from repro.core.validator import validate
from repro.core.words import pack_words
from repro.net.ethernet import ETHERNET_3MB, ETHERNET_10MB
from repro.protocols.ethertypes import ETHERTYPE_IP
from repro.protocols.ip import IPHeader, PROTO_TCP, PROTO_UDP, ip_address
from repro.protocols.tcp import TCPFlags, TCPSegment
from repro.protocols.udp import UDPHeader


def ip_frame(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP,
             payload=b"", options=b""):
    datagram = IPHeader(
        src=ip_address(src), dst=ip_address(dst), protocol=protocol,
        options=options,
    ).encode(payload)
    return ETHERNET_10MB.frame(
        b"\x02" * 6, b"\x01" * 6, ETHERTYPE_IP, datagram
    )


def udp_frame(dst_port, src_port=9999, **kwargs):
    return ip_frame(
        payload=UDPHeader(src_port=src_port, dst_port=dst_port).encode(b"x"),
        **kwargs,
    )


def tcp_frame(dst_port, src_port=9999):
    segment = TCPSegment(
        src_port=src_port, dst_port=dst_port, seq=0, ack=0,
        flags=TCPFlags.ACK,
    )
    return ip_frame(protocol=PROTO_TCP, payload=segment.encode())


class TestFilterLibrary:
    def test_all_builders_validate(self):
        programs = [
            ethertype_filter(0x0800),
            ip_protocol_filter(PROTO_UDP),
            ip_host_filter(ip_address("10.0.0.2")),
            udp_port_filter(53),
            tcp_port_filter(23),
            ip_conversation_filter(
                ip_address("10.0.0.1"), ip_address("10.0.0.2")
            ),
        ]
        for program in programs:
            validate(program)

    def test_ethertype(self):
        program = ethertype_filter(ETHERTYPE_IP)
        assert evaluate(program, ip_frame()).accepted
        other = ETHERNET_10MB.frame(b"\x02" * 6, b"\x01" * 6, 0x0900, b"")
        assert not evaluate(program, other).accepted

    def test_ethertype_on_3mb_link(self):
        program = ethertype_filter(2, link=ETHERNET_3MB)
        frame = ETHERNET_3MB.frame(b"\x05", b"\x07", 2, b"pup")
        assert evaluate(program, frame).accepted

    def test_ip_protocol(self):
        program = ip_protocol_filter(PROTO_UDP)
        assert evaluate(program, udp_frame(53)).accepted
        assert not evaluate(program, tcp_frame(53)).accepted

    def test_ip_host_both_directions(self):
        program = ip_host_filter(ip_address("10.0.0.2"))
        assert evaluate(program, ip_frame(dst="10.0.0.2")).accepted
        assert evaluate(
            program, ip_frame(src="10.0.0.2", dst="10.0.0.9")
        ).accepted
        assert not evaluate(
            program, ip_frame(src="10.0.0.3", dst="10.0.0.4")
        ).accepted

    def test_udp_port_directions(self):
        dst_only = udp_port_filter(53, "dst")
        src_only = udp_port_filter(53, "src")
        either = udp_port_filter(53, "either")
        to_53 = udp_frame(53)
        from_53 = udp_frame(1234, src_port=53)
        assert evaluate(dst_only, to_53).accepted
        assert not evaluate(dst_only, from_53).accepted
        assert evaluate(src_only, from_53).accepted
        assert not evaluate(src_only, to_53).accepted
        assert evaluate(either, to_53).accepted
        assert evaluate(either, from_53).accepted

    def test_udp_port_rejects_wrong_port_and_protocol(self):
        program = udp_port_filter(53)
        assert not evaluate(program, udp_frame(54)).accepted
        assert not evaluate(program, tcp_frame(53)).accepted

    def test_udp_port_rejects_optioned_ip_cleanly(self):
        """The section 7 caveat, made safe: IHL != 5 is rejected, not
        misparsed."""
        program = udp_port_filter(53)
        optioned = udp_frame(53, options=b"\x01" * 8)
        assert not evaluate(program, optioned).accepted

    def test_tcp_port(self):
        program = tcp_port_filter(23)
        assert evaluate(program, tcp_frame(23)).accepted
        assert not evaluate(program, tcp_frame(24)).accepted
        assert not evaluate(program, udp_frame(23)).accepted

    def test_conversation(self):
        a, b = ip_address("10.0.0.1"), ip_address("10.0.0.2")
        program = ip_conversation_filter(a, b)
        assert evaluate(program, ip_frame("10.0.0.1", "10.0.0.2")).accepted
        assert evaluate(program, ip_frame("10.0.0.2", "10.0.0.1")).accepted
        assert not evaluate(program, ip_frame("10.0.0.1", "10.0.0.3")).accepted
        assert not evaluate(program, ip_frame("10.0.0.3", "10.0.0.2")).accepted


class TestTracer:
    PACKET = pack_words([0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 35])

    def test_trace_matches_interpreter(self):
        program = figure_3_9_pup_socket_35()
        trace = trace_evaluation(program, self.PACKET)
        reference = evaluate(program, self.PACKET)
        assert trace.result == reference
        assert len(trace.steps) == reference.instructions_executed

    def test_stacks_chain(self):
        trace = trace_evaluation(figure_3_9_pup_socket_35(), self.PACKET)
        for earlier, later in zip(trace.steps, trace.steps[1:]):
            assert later.stack_before == earlier.stack_after

    def test_short_circuit_marked(self):
        miss = pack_words([0, 2, 0, 0, 0, 0, 0, 0, 36])
        trace = trace_evaluation(figure_3_9_pup_socket_35(), miss)
        assert trace.steps[-1].terminated
        assert len(trace.steps) == 2

    def test_fault_marked(self):
        from repro.core.program import FilterProgram, asm

        program = FilterProgram(asm(("PUSHWORD", 30)))
        trace = trace_evaluation(program, self.PACKET)
        assert trace.result.fault == FaultCode.PACKET_BOUNDS
        assert trace.steps[-1].fault == FaultCode.PACKET_BOUNDS

    @pytest.mark.parametrize(
        "items, fault, last_after",
        [
            # The 33rd push is refused: the stack holds 32, not 33.
            ((("PUSHONE",),) * 33, FaultCode.STACK_OVERFLOW, (1,) * 32),
            # PUSHIND is not CLASSIC: refused before it pops or pushes.
            ((("PUSHLIT", 3), ("PUSHIND",)), FaultCode.BAD_INSTRUCTION, (3,)),
        ],
        ids=["overflow", "pushind-at-classic"],
    )
    def test_faulting_step_shows_what_the_interpreter_did(
        self, items, fault, last_after
    ):
        from repro.core.program import FilterProgram, asm

        program = FilterProgram(asm(*items))
        trace = trace_evaluation(program, self.PACKET)
        assert trace.result == evaluate(program, self.PACKET)
        assert trace.result.fault == fault
        assert len(trace.steps) == len(items)
        assert trace.steps[-1].fault == fault
        assert trace.steps[-1].stack_after == last_after

    def test_format_is_readable(self):
        trace = trace_evaluation(figure_3_9_pup_socket_35(), self.PACKET)
        text = trace.format()
        assert "PUSHWORD+8" in text
        assert "ACCEPT" in text
        assert text.count("\n") >= len(trace.steps)

    def test_trace_many_programs_against_interpreter(self):
        """The tracer's simulation must agree with the interpreter on a
        spread of programs and packets."""
        from repro.core.compiler import compile_expr, word
        from repro.core.paper_filters import figure_3_8_pup_type_range

        programs = [
            figure_3_8_pup_type_range(),
            figure_3_9_pup_socket_35(),
            compile_expr((word(1) == 2) | (word(2) > 10)),
        ]
        packets = [self.PACKET, b"", b"\x00\x02", pack_words([0, 2, 99])]
        for program in programs:
            for packet in packets:
                trace = trace_evaluation(program, packet)
                assert trace.result == evaluate(program, packet)


class TestNITBaseline:
    def test_single_field_matches(self):
        from repro.baselines.nit import NITDemux, SingleFieldPredicate
        from repro.core.port import Port

        demux = NITDemux()
        port = Port(0)
        demux.attach(port, SingleFieldPredicate(offset=6, value=ETHERTYPE_IP))
        assert demux.deliver(ip_frame())
        assert port.queued == 1
        assert not demux.deliver(
            ETHERNET_10MB.frame(b"\x02" * 6, b"\x01" * 6, 0x0900, b"")
        )

    def test_cannot_discriminate_two_fields(self):
        """NIT's limitation: two UDP ports, one ethertype — the best
        single-field predicate over-captures."""
        from repro.baselines.nit import NITDemux, SingleFieldPredicate
        from repro.core.port import Port

        demux = NITDemux()
        port = Port(0, queue_limit=64)
        # The finest honest single-field key for "UDP port 53" that
        # still sees every such packet is the UDP dst-port word itself —
        # but matching word 18 == 53 also catches any packet whose 18th
        # word happens to be 53 in another protocol:
        demux.attach(port, SingleFieldPredicate(offset=18, value=53))
        assert demux.deliver(udp_frame(53))
        # False positive: a TCP segment whose seq number low word is 53.
        lookalike = tcp_frame(1234)
        lookalike = bytearray(lookalike)
        lookalike[36:38] = (53).to_bytes(2, "big")
        assert demux.deliver(bytes(lookalike))  # over-capture!
        assert port.queued == 2
