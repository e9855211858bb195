"""Tests for the figure 4-1 demultiplexer loop and section 3.2 rules."""

import pytest

from repro.core import demux as demux_module, jit
from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.interpreter import ShortCircuitMode
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.validator import ValidationError, validate
from repro.core.words import pack_words
from repro.sim.overload import BufferPool


def port_with(program, port_id=0, **attrs):
    port = Port(port_id)
    port.bind_filter(program)
    for name, value in attrs.items():
        setattr(port, name, value)
    return port


def type_filter(value, priority=10):
    return compile_expr(word(1) == value, priority=priority)


PACKET_A = pack_words([0, 0xA, 0, 0])
PACKET_B = pack_words([0, 0xB, 0, 0])


class TestBasicDelivery:
    def test_accepting_port_gets_packet(self):
        demux = PacketFilterDemux()
        port = port_with(type_filter(0xA))
        demux.attach(port)
        report = demux.deliver(PACKET_A)
        assert report.accepted_by == (0,)
        assert port.queued == 1

    def test_rejecting_all_filters_drops(self):
        demux = PacketFilterDemux()
        demux.attach(port_with(type_filter(0xA)))
        report = demux.deliver(PACKET_B)
        assert not report.accepted
        assert demux.packets_unclaimed == 1

    def test_pool_refusal_is_not_unclaimed(self):
        """A packet a filter accepted is claimed even when the buffer
        pool refuses it — the kernel's ``packets_unclaimed`` agrees."""
        demux = PacketFilterDemux()
        port = port_with(type_filter(0xA), pool=BufferPool(1))
        demux.attach(port)
        demux.deliver(PACKET_A)
        report = demux.deliver(PACKET_A)
        assert report.nobuf_by == (0,) and report.accepted
        assert demux.packets_unclaimed == 0

    def test_first_match_wins(self):
        """"Once a packet has been accepted for delivery to a process,
        it will not be submitted to the filters of any other
        processes." """
        demux = PacketFilterDemux()
        first = port_with(type_filter(0xA), port_id=0)
        second = port_with(type_filter(0xA), port_id=1)
        demux.attach(first)
        demux.attach(second)
        report = demux.deliver(PACKET_A)
        assert report.accepted_by == (0,)
        assert second.queued == 0

    def test_no_filter_port_rejected_at_attach(self):
        demux = PacketFilterDemux()
        with pytest.raises(ValueError):
            demux.attach(Port(0))

    def test_double_attach_rejected(self):
        demux = PacketFilterDemux()
        port = port_with(type_filter(0xA))
        demux.attach(port)
        with pytest.raises(ValueError):
            demux.attach(port)

    def test_detach(self):
        demux = PacketFilterDemux()
        port = port_with(type_filter(0xA))
        demux.attach(port)
        demux.detach(port)
        assert not demux.deliver(PACKET_A).accepted
        with pytest.raises(ValueError):
            demux.detach(port)


class TestPriority:
    def test_higher_priority_wins(self):
        demux = PacketFilterDemux()
        low = port_with(type_filter(0xA, priority=1), port_id=0)
        high = port_with(type_filter(0xA, priority=9), port_id=1)
        demux.attach(low)
        demux.attach(high)
        assert demux.deliver(PACKET_A).accepted_by == (1,)

    def test_attach_order_does_not_trump_priority(self):
        demux = PacketFilterDemux()
        high = port_with(type_filter(0xA, priority=9), port_id=1)
        low = port_with(type_filter(0xA, priority=1), port_id=0)
        demux.attach(high)
        demux.attach(low)
        assert demux.deliver(PACKET_A).accepted_by == (1,)

    def test_priority_skips_early_rejection(self):
        """Priority ordering also reduces predicates tested when the
        likely filter sorts first (section 3.2's second purpose)."""
        demux = PacketFilterDemux()
        demux.attach(port_with(type_filter(0xA, priority=9), port_id=0))
        demux.attach(port_with(type_filter(0xB, priority=1), port_id=1))
        report = demux.deliver(PACKET_A)
        assert report.predicates_tested == 1


class TestCopyAll:
    def test_copy_all_continues_to_lower_priority(self):
        demux = PacketFilterDemux()
        monitor = port_with(
            type_filter(0xA, priority=9), port_id=0, copy_all=True
        )
        owner = port_with(type_filter(0xA, priority=1), port_id=1)
        demux.attach(monitor)
        demux.attach(owner)
        report = demux.deliver(PACKET_A)
        assert report.accepted_by == (0, 1)
        assert monitor.queued == 1 and owner.queued == 1

    def test_non_copy_all_stops_even_with_monitor_below(self):
        demux = PacketFilterDemux()
        owner = port_with(type_filter(0xA, priority=9), port_id=0)
        below = port_with(type_filter(0xA, priority=1), port_id=1)
        demux.attach(owner)
        demux.attach(below)
        assert demux.deliver(PACKET_A).accepted_by == (0,)


class TestOverflow:
    def test_dropped_by_reported(self):
        demux = PacketFilterDemux()
        port = port_with(type_filter(0xA))
        port.set_queue_limit(1)
        demux.attach(port)
        assert demux.deliver(PACKET_A).accepted_by == (0,)
        report = demux.deliver(PACKET_A)
        assert report.dropped_by == (0,)
        assert report.accepted  # accepted by the filter, lost to the queue
        assert port.stats.dropped_overflow == 1


class TestReordering:
    def test_busier_filter_moves_first_within_priority(self):
        demux = PacketFilterDemux()
        demux.REORDER_INTERVAL = 8
        quiet = port_with(type_filter(0xA, priority=5), port_id=0)
        busy = port_with(type_filter(0xB, priority=5), port_id=1)
        demux.attach(quiet)
        demux.attach(busy)
        for _ in range(10):
            demux.deliver(PACKET_B)
        # After reorder, a B packet is found on the first predicate.
        report = demux.deliver(PACKET_B)
        assert report.predicates_tested == 1

    def test_reordering_never_crosses_priorities(self):
        demux = PacketFilterDemux()
        demux.REORDER_INTERVAL = 4
        high = port_with(type_filter(0xA, priority=9), port_id=0)
        busy_low = port_with(type_filter(0xA, priority=1), port_id=1)
        demux.attach(high)
        demux.attach(busy_low)
        for _ in range(12):
            report = demux.deliver(PACKET_A)
            # Port 0 always wins (its bounded queue may drop, but the
            # packet never reaches the lower-priority port).
            assert report.accepted_by + report.dropped_by == (0,)
            assert busy_low.queued == 0

    def test_reordering_can_be_disabled(self):
        demux = PacketFilterDemux(reorder_same_priority=False)
        demux.REORDER_INTERVAL = 2
        quiet = port_with(type_filter(0xA, priority=5), port_id=0)
        busy = port_with(type_filter(0xB, priority=5), port_id=1)
        demux.attach(quiet)
        demux.attach(busy)
        for _ in range(10):
            demux.deliver(PACKET_B)
        assert demux.deliver(PACKET_B).predicates_tested == 2


class TestEngines:
    @pytest.mark.parametrize("engine", list(Engine))
    def test_all_engines_agree(self, engine):
        demux = PacketFilterDemux(engine=engine)
        demux.attach(port_with(type_filter(0xA), port_id=0))
        demux.attach(port_with(type_filter(0xB), port_id=1))
        assert demux.deliver(PACKET_A).accepted_by == (0,)
        assert demux.deliver(PACKET_B).accepted_by == (1,)
        assert not demux.deliver(pack_words([0, 0xC])).accepted

    @pytest.mark.parametrize("engine", list(Engine))
    def test_engine_accepts_string_value(self, engine):
        # Engine checks in the hot path are identity tests, so a raw
        # string like engine="ir" must normalize to the enum member at
        # construction — otherwise it silently falls back to the
        # checked interpreter.
        demux = PacketFilterDemux(engine=engine.value)
        assert demux.engine is engine
        demux.attach(port_with(type_filter(0xA)))
        assert demux.deliver(PACKET_A).accepted_by == (0,)

    def test_engine_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            PacketFilterDemux(engine="turbo")

    @pytest.mark.parametrize(
        "engine", [Engine.PREVALIDATED, Engine.COMPILED]
    )
    def test_validating_engines_reject_bad_programs_at_attach(self, engine):
        demux = PacketFilterDemux(engine=engine)
        bad = port_with(FilterProgram(asm(("PUSHONE", "AND"))))
        with pytest.raises(ValidationError):
            demux.attach(bad)

    @pytest.mark.parametrize("engine", list(Engine))
    def test_no_engine_keeps_a_plan_on_the_program(self, engine):
        # The linear interpreters keep their plan on the binding, so a
        # program that outlives its binding carries none.
        program = type_filter(0xA)
        demux = PacketFilterDemux(engine=engine)
        demux.attach(port_with(program))
        assert demux.deliver(PACKET_A).accepted_by == (0,)
        assert "plan" not in vars(program)

    @pytest.mark.parametrize("engine", list(Engine))
    def test_attach_validates_once(self, engine, monkeypatch):
        # COMPILED takes its report from the compiled filter.
        calls = []

        def counting(program, **kwargs):
            calls.append(program)
            return validate(program, **kwargs)

        monkeypatch.setattr(demux_module, "validate", counting)
        monkeypatch.setattr(jit, "validate", counting)
        demux = PacketFilterDemux(engine=engine)
        demux.attach(port_with(type_filter(0xA)))
        assert demux.deliver(PACKET_A).accepted_by == (0,)
        assert len(calls) == 1

    def test_prevalidated_skips_short_packets(self):
        demux = PacketFilterDemux(engine=Engine.PREVALIDATED)
        demux.attach(port_with(type_filter(0xA)))
        assert not demux.deliver(b"\x00").accepted

    def test_decision_table_mode(self):
        demux = PacketFilterDemux(engine=Engine.IR)
        for index, value in enumerate((0xA, 0xB, 0xC)):
            demux.attach(port_with(type_filter(value), port_id=index))
        report = demux.deliver(PACKET_B)
        assert report.accepted_by == (1,)
        # The table routes straight to the one candidate filter.
        assert report.predicates_tested == 1

    def test_decision_table_under_no_push_mode(self):
        demux = PacketFilterDemux(
            engine=Engine.IR, mode=ShortCircuitMode.NO_PUSH
        )
        for index, value in enumerate((0xA, 0xB, 0xC)):
            demux.attach(port_with(type_filter(value), port_id=index))
        report = demux.deliver(PACKET_B)
        assert report.accepted_by == (1,)
        assert report.predicates_tested == 1

    def test_deliver_batch_rejects_mismatched_packet_ids(self):
        demux = PacketFilterDemux()
        demux.attach(port_with(type_filter(0xA)))
        with pytest.raises(ValueError):
            demux.deliver_batch([PACKET_A, PACKET_A], packet_ids=[7])
        # nothing was delivered before the mismatch was noticed
        assert demux.packets_seen == 0


class TestAccounting:
    def test_mean_predicates_tested(self):
        demux = PacketFilterDemux()
        demux.attach(port_with(type_filter(0xA, priority=9), port_id=0))
        demux.attach(port_with(type_filter(0xB, priority=1), port_id=1))
        demux.deliver(PACKET_A)  # 1 predicate
        demux.deliver(PACKET_B)  # 2 predicates
        assert demux.mean_predicates_tested == pytest.approx(1.5)

    def test_instruction_counts_accumulate(self):
        demux = PacketFilterDemux()
        demux.attach(port_with(type_filter(0xA)))
        report = demux.deliver(PACKET_A)
        assert report.instructions_executed > 0
