"""Unit tests for FilterProgram wire encoding and the tiny assembler."""

import pickle

import pytest

from repro.core.instructions import BinaryOp, EncodingError, StackAction
from repro.core.paper_filters import (
    figure_3_8_pup_type_range,
    figure_3_9_pup_socket_35,
)
from repro.core.program import FilterProgram, MAX_PRIORITY, asm
from repro.core.validator import validate


class TestAsm:
    def test_bare_string_action(self):
        [ins] = asm("PUSHONE")
        assert ins.action_code == StackAction.PUSHONE
        assert ins.operator == BinaryOp.NOP

    def test_bare_string_operator_means_nopush(self):
        [ins] = asm("AND")
        assert ins.action_code == StackAction.NOPUSH
        assert ins.operator == BinaryOp.AND

    def test_pushword_tuple(self):
        [ins] = asm(("PUSHWORD", 7))
        assert ins.push_index == 7

    def test_action_operator_literal(self):
        [ins] = asm(("PUSHLIT", "CAND", 35))
        assert ins.operator == BinaryOp.CAND
        assert ins.literal == 35

    def test_unknown_mnemonic(self):
        with pytest.raises(EncodingError):
            asm("FROB")

    def test_trailing_operands_rejected(self):
        with pytest.raises(EncodingError):
            asm(("PUSHONE", "AND", 1, 2))


class TestEncodeDecode:
    def test_roundtrip_figure_3_8(self):
        program = figure_3_8_pup_type_range()
        assert FilterProgram.decode(program.encode()) == program

    def test_roundtrip_figure_3_9(self):
        program = figure_3_9_pup_socket_35()
        assert FilterProgram.decode(program.encode()) == program

    def test_wire_header_matches_paper_initializers(self):
        # struct enfilter f = { 10, 12, ... } and { 10, 8, ... }
        assert list(figure_3_8_pup_type_range().encode()[:2]) == [10, 12]
        assert list(figure_3_9_pup_socket_35().encode()[:2]) == [10, 8]

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(EncodingError):
            FilterProgram.decode([10])

    def test_decode_rejects_wrong_length_field(self):
        words = list(figure_3_9_pup_socket_35().encode())
        words[1] += 1
        with pytest.raises(EncodingError):
            FilterProgram.decode(words)

    def test_decode_rejects_pushlit_missing_literal(self):
        program = FilterProgram(asm(("PUSHLIT", "EQ", 5)))
        words = list(program.encode())
        words = words[:-1]
        words[1] -= 1
        with pytest.raises(EncodingError):
            FilterProgram.decode(words)


class TestStructure:
    def test_priority_bounds(self):
        with pytest.raises(EncodingError):
            FilterProgram(asm("PUSHONE"), priority=MAX_PRIORITY + 1)
        with pytest.raises(EncodingError):
            FilterProgram(asm("PUSHONE"), priority=-1)

    def test_words_examined(self):
        """How deep into a packet a filter looks: figure 3-9 reads word
        8, which a 17-byte packet holds (zero-padded), figure 3-8 word 3."""
        assert validate(figure_3_9_pup_socket_35()).max_packet_bytes_touched == 17
        assert validate(figure_3_8_pup_type_range()).max_packet_bytes_touched == 7

    def test_words_examined_no_pushes(self):
        assert validate(FilterProgram(asm("PUSHONE"))).max_packet_bytes_touched == 0

    def test_uses_short_circuit(self):
        assert validate(figure_3_9_pup_socket_35()).uses_short_circuit
        assert not validate(figure_3_8_pup_type_range()).uses_short_circuit

    def test_len_counts_instructions_not_words(self):
        assert len(figure_3_9_pup_socket_35()) == 6
        assert figure_3_9_pup_socket_35().encoded_length == 8

    def test_value_equality_and_hash(self):
        program = figure_3_9_pup_socket_35()
        assert program == figure_3_9_pup_socket_35()
        assert hash(program) == hash(figure_3_9_pup_socket_35())
        assert program != FilterProgram(program.instructions, priority=3)

    def test_cached_hash_stays_out_of_repr_and_pickles(self):
        # The hash is computed from the fields, and the per-object
        # caches (``plan``, ``_cleared``) change neither the value,
        # the repr nor a pickle round-trip.
        program = figure_3_9_pup_socket_35()
        before = (repr(program), hash(program))
        program.plan
        program._cleared
        assert (repr(program), hash(program)) == before
        assert "plan" not in repr(program) and "_cleared" not in repr(program)
        assert hash(program) != hash(
            FilterProgram(program.instructions, priority=3)
        )
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program and hash(clone) == hash(program)

    def test_disassemble_mentions_every_instruction(self):
        text = figure_3_8_pup_type_range().disassemble()
        assert "PUSHWORD+1" in text
        assert "PUSH00FF | AND" in text
        assert text.count("\n") == len(figure_3_8_pup_type_range())
