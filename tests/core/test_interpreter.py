"""Interpreter conformance tests — figure 3-6, operation by operation."""

import pytest

from repro.core.interpreter import (
    FaultCode,
    LanguageLevel,
    ShortCircuitMode,
    evaluate,
)
from repro.core.instructions import BinaryOp, Instruction, StackAction
from repro.core.program import FilterProgram, asm
from repro.core.validator import ValidationError
from repro.core.words import pack_words


def run(*items, packet=b"", priority=0, **kwargs):
    program = FilterProgram(asm(*items), priority=priority)
    return evaluate(program, packet, **kwargs)


PACKET = pack_words([0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 35, 7, 8, 9])


class TestStackActions:
    def test_pushone_accepts(self):
        assert run("PUSHONE").accepted

    def test_pushzero_rejects(self):
        assert not run("PUSHZERO").accepted

    def test_pushlit(self):
        assert run(("PUSHLIT", 0xBEEF), packet=b"").accepted

    def test_pushffff(self):
        result = run("PUSHFFFF", ("PUSHLIT", "EQ", 0xFFFF))
        assert result.accepted

    def test_pushff00(self):
        assert run("PUSHFF00", ("PUSHLIT", "EQ", 0xFF00)).accepted

    def test_push00ff(self):
        assert run("PUSH00FF", ("PUSHLIT", "EQ", 0x00FF)).accepted

    def test_pushword_reads_packet(self):
        assert run(("PUSHWORD", 1), ("PUSHLIT", "EQ", 2), packet=PACKET).accepted

    def test_pushword_out_of_bounds_faults(self):
        result = run(("PUSHWORD", 40), packet=PACKET)
        assert not result.accepted
        assert result.fault == FaultCode.PACKET_BOUNDS

    def test_pushword_reads_zero_padded_tail(self):
        result = run(("PUSHWORD", 1), ("PUSHLIT", "EQ", 0xAB00), packet=b"\x00\x00\xab")
        assert result.accepted


class TestComparisons:
    """Comparisons compute T2 <op> T1 where T1 is the top of stack."""

    @pytest.mark.parametrize(
        "op,t2,t1,expect",
        [
            ("EQ", 5, 5, True), ("EQ", 5, 6, False),
            ("NEQ", 5, 6, True), ("NEQ", 5, 5, False),
            ("LT", 4, 5, True), ("LT", 5, 5, False), ("LT", 6, 5, False),
            ("LE", 5, 5, True), ("LE", 6, 5, False),
            ("GT", 6, 5, True), ("GT", 5, 5, False),
            ("GE", 5, 5, True), ("GE", 4, 5, False),
        ],
    )
    def test_operand_order(self, op, t2, t1, expect):
        # Push T2 first, then T1 (top).
        result = run(("PUSHLIT", t2), ("PUSHLIT", op, t1))
        assert result.accepted is expect

    def test_comparison_pushes_one_or_zero(self):
        # (5 == 5) == 1 should hold.
        result = run(("PUSHLIT", 5), ("PUSHLIT", "EQ", 5), ("PUSHONE", "EQ"))
        assert result.accepted


class TestBitwise:
    def test_and_is_bitwise(self):
        # 0xFF00 AND 0x0FF0 = 0x0F00 (nonzero => accept)
        assert run("PUSHFF00", ("PUSHLIT", "AND", 0x0FF0)).accepted

    def test_and_to_zero_rejects(self):
        assert not run("PUSHFF00", ("PUSH00FF", "AND")).accepted

    def test_or(self):
        assert run("PUSHZERO", ("PUSHLIT", "OR", 4)).accepted

    def test_xor_equal_values_rejects(self):
        assert not run(("PUSHLIT", 7), ("PUSHLIT", "XOR", 7)).accepted

    def test_xor_differing_accepts(self):
        assert run(("PUSHLIT", 7), ("PUSHLIT", "XOR", 9)).accepted

    def test_nop_leaves_stack_alone(self):
        assert run("PUSHONE", ("NOPUSH", "NOP")).accepted


class TestShortCircuit:
    """The four short-circuit operators, per the figure 3-6 table."""

    def test_cor_terminates_true_on_match(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "COR", 5), "PUSHZERO")
        assert result.accepted
        assert result.short_circuited
        assert result.instructions_executed == 2

    def test_cor_continues_on_mismatch(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "COR", 6), "PUSHONE")
        assert result.accepted
        assert not result.short_circuited

    def test_cand_terminates_false_on_mismatch(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "CAND", 6), "PUSHONE")
        assert not result.accepted
        assert result.short_circuited

    def test_cand_continues_on_match(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "CAND", 5), "PUSHONE")
        assert result.accepted

    def test_cnor_terminates_false_on_match(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "CNOR", 5), "PUSHONE")
        assert not result.accepted
        assert result.short_circuited

    def test_cnand_terminates_true_on_mismatch(self):
        result = run(("PUSHLIT", 5), ("PUSHLIT", "CNAND", 6), "PUSHZERO")
        assert result.accepted
        assert result.short_circuited

    def test_push_result_mode_leaves_value(self):
        # Continuing CAND pushes TRUE; program ends; top nonzero.
        result = run(
            ("PUSHLIT", 5), ("PUSHLIT", "CAND", 5),
            mode=ShortCircuitMode.PUSH_RESULT,
        )
        assert result.accepted

    def test_no_push_mode_leaves_stack_empty(self):
        result = run(
            ("PUSHLIT", 5), ("PUSHLIT", "CAND", 5),
            mode=ShortCircuitMode.NO_PUSH,
        )
        assert not result.accepted
        assert result.fault == FaultCode.EMPTY_STACK

    def test_modes_agree_on_well_formed_filters(self):
        from repro.core.paper_filters import figure_3_9_pup_socket_35

        program = figure_3_9_pup_socket_35()
        for packet in [PACKET, PACKET[:4], pack_words([0, 2, 0, 0, 0, 0, 0, 0, 36])]:
            a = evaluate(program, packet, mode=ShortCircuitMode.PUSH_RESULT)
            b = evaluate(program, packet, mode=ShortCircuitMode.NO_PUSH)
            assert a.accepted == b.accepted


class TestAcceptanceRules:
    def test_empty_program_rejects_with_empty_stack(self):
        program = FilterProgram([])
        result = evaluate(program, PACKET)
        assert not result.accepted
        assert result.fault == FaultCode.EMPTY_STACK

    def test_top_of_stack_decides_not_whole_stack(self):
        # Stack ends [1, 0]: top is 0 => reject.
        assert not run("PUSHONE", "PUSHZERO").accepted
        # Stack ends [0, 1]: top is 1 => accept.
        assert run("PUSHZERO", "PUSHONE").accepted

    def test_any_nonzero_top_accepts(self):
        assert run(("PUSHLIT", 0x8000)).accepted


class TestFaults:
    def test_stack_underflow(self):
        result = run(("PUSHONE", "AND"))
        assert result.fault == FaultCode.STACK_UNDERFLOW

    def test_stack_overflow(self):
        items = ["PUSHONE"] * 40
        result = run(*items)
        assert result.fault == FaultCode.STACK_OVERFLOW

    def test_extension_op_rejected_in_classic(self):
        result = run(("PUSHLIT", 4), ("PUSHLIT", "ADD", 4))
        assert result.fault == FaultCode.BAD_INSTRUCTION

    def test_extension_action_rejected_in_classic(self):
        result = run("PUSHONE", "PUSHIND", packet=PACKET)
        assert result.fault == FaultCode.BAD_INSTRUCTION

    def test_fault_counts_instructions(self):
        result = run("PUSHONE", ("PUSHONE", "AND"), ("PUSHONE", "AND"), ("NOPUSH", "AND"))
        assert result.fault == FaultCode.STACK_UNDERFLOW
        assert result.instructions_executed == 4


class TestExtendedLanguage:
    def test_arithmetic(self):
        result = run(
            ("PUSHLIT", 6), ("PUSHLIT", "MUL", 7), ("PUSHLIT", "EQ", 42),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_add_wraps_16_bits(self):
        result = run(
            ("PUSHLIT", 0xFFFF), ("PUSHLIT", "ADD", 1), ("PUSHZERO", "EQ"),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_sub_wraps(self):
        result = run(
            ("PUSHLIT", 0), ("PUSHLIT", "SUB", 1), ("PUSHFFFF", "EQ"),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_div(self):
        result = run(
            ("PUSHLIT", 42), ("PUSHLIT", "DIV", 6), ("PUSHLIT", "EQ", 7),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_divide_by_zero_faults(self):
        result = run(
            ("PUSHLIT", 42), ("PUSHZERO", "DIV"),
            level=LanguageLevel.EXTENDED,
        )
        assert result.fault == FaultCode.DIVIDE_BY_ZERO

    def test_shifts(self):
        result = run(
            ("PUSHLIT", 1), ("PUSHLIT", "LSH", 4), ("PUSHLIT", "EQ", 16),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted
        result = run(
            ("PUSHLIT", 16), ("PUSHLIT", "RSH", 4), ("PUSHONE", "EQ"),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_lsh_saturates_shift_amount(self):
        result = run(
            ("PUSHLIT", 1), ("PUSHLIT", "LSH", 500), ("PUSHZERO", "EQ"),
            level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_pushind(self):
        # packet word[word[0]]: word0 is 0x0102 -> way out of bounds;
        # use a packet where word 0 == 2 so PUSHIND reads word 2.
        packet = pack_words([2, 0xAAAA, 0xBBBB])
        result = run(
            ("PUSHWORD", 0), "PUSHIND", ("PUSHLIT", "EQ", 0xBBBB),
            packet=packet, level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_pushind_out_of_bounds_faults(self):
        packet = pack_words([99, 0xAAAA])
        result = run(
            ("PUSHWORD", 0), "PUSHIND",
            packet=packet, level=LanguageLevel.EXTENDED,
        )
        assert result.fault == FaultCode.PACKET_BOUNDS

    def test_pushbyteind(self):
        packet = bytes([3, 0, 0, 0xCD])
        result = run(
            ("PUSHLIT", 3), "PUSHBYTEIND", ("PUSHLIT", "EQ", 0xCD),
            packet=packet, level=LanguageLevel.EXTENDED,
        )
        assert result.accepted

    def test_pushind_underflow(self):
        result = run(
            "PUSHIND", packet=PACKET, level=LanguageLevel.EXTENDED
        )
        assert result.fault == FaultCode.STACK_UNDERFLOW


class TestUncheckedFastPath:
    def test_matches_checked_on_paper_filters(self):
        from repro.core.paper_filters import (
            figure_3_8_pup_type_range,
            figure_3_9_pup_socket_35,
        )

        packets = [
            PACKET,
            pack_words([0, 2, 0, 0x0164, 0, 0, 0, 0, 35]),
            pack_words([0, 3, 0, 0x0101, 0, 0, 0, 0, 35]),
        ]
        for program in (figure_3_8_pup_type_range(), figure_3_9_pup_socket_35()):
            for packet in packets:
                checked = evaluate(program, packet, checked=True)
                fast = evaluate(program, packet, checked=False)
                assert checked.accepted == fast.accepted

    def test_fast_path_bounds_fault_rejects(self):
        result = run(("PUSHWORD", 30), packet=PACKET, checked=False)
        assert not result.accepted
        assert result.fault == FaultCode.PACKET_BOUNDS

    def test_fast_path_refuses_what_validate_rejects(self):
        """An operator with nothing to pop is a stack underflow, never
        a packet-bounds fault: the fast path refuses the program."""
        program = FilterProgram([Instruction(StackAction.NOPUSH, BinaryOp.EQ)])
        assert evaluate(program, PACKET).fault == FaultCode.STACK_UNDERFLOW
        with pytest.raises(ValidationError, match="underflows"):
            evaluate(program, PACKET, checked=False)


class TestInstructionCounting:
    def test_counts_instruction_words_not_literals(self):
        result = run(("PUSHLIT", 1), ("PUSHLIT", "EQ", 1))
        assert result.instructions_executed == 2

    def test_short_circuit_saves_instructions(self):
        from repro.core.paper_filters import figure_3_9_pup_socket_35

        program = figure_3_9_pup_socket_35()
        # Wrong socket: first CAND exits after 2 instructions.
        miss = pack_words([0, 2, 0, 0, 0, 0, 0, 0, 36])
        result = evaluate(program, miss)
        assert result.instructions_executed == 2
        assert not result.accepted
