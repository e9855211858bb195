"""Unit tests for the 16-bit word view of packets."""

import pytest

from repro.core.extensions import long_equals
from repro.core.interpreter import FaultCode, evaluate
from repro.core.words import get_byte, get_word, pack_words


def word_count(packet):
    """How many words ``get_word`` addresses before it raises."""
    count = 0
    while True:
        try:
            get_word(packet, count)
        except IndexError:
            return count
        count += 1


class TestWordCount:
    def test_empty_packet_has_no_words(self):
        assert word_count(b"") == 0

    def test_even_length(self):
        assert word_count(b"\x00" * 8) == 4

    def test_odd_trailing_byte_counts_as_a_word(self):
        assert word_count(b"\x00" * 5) == 3

    def test_single_byte(self):
        assert word_count(b"\x01") == 1


class TestGetWord:
    def test_big_endian(self):
        assert get_word(b"\x12\x34", 0) == 0x1234

    def test_second_word(self):
        assert get_word(b"\x00\x01\xab\xcd", 1) == 0xABCD

    def test_odd_tail_is_zero_padded(self):
        assert get_word(b"\x00\x00\xff", 1) == 0xFF00

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            get_word(b"\x00\x00", 1)

    def test_negative_index_raises(self):
        with pytest.raises(IndexError):
            get_word(b"\x00\x00", -1)

    def test_empty_packet_raises(self):
        with pytest.raises(IndexError):
            get_word(b"", 0)


class TestGetByte:
    def test_in_range(self):
        assert get_byte(b"\x0a\x0b", 1) == 0x0B

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            get_byte(b"\x0a", 1)

    def test_negative_raises(self):
        with pytest.raises(IndexError):
            get_byte(b"\x0a", -1)


class TestGetLong:
    """A 32-bit field at a word index, as a filter reads it: two
    big-endian words, high first (``extensions.long_equals``)."""

    def test_combines_two_words(self):
        packet = b"\x12\x34\x56\x78"
        assert evaluate(long_equals(0, 0x12345678), packet).accepted
        assert not evaluate(long_equals(0, 0x12345679), packet).accepted

    def test_padded_low_word(self):
        assert evaluate(long_equals(0, 0x12345600), b"\x12\x34\x56").accepted

    def test_out_of_range_raises(self):
        result = evaluate(long_equals(0, 0x12340000), b"\x12\x34")
        assert not result.accepted
        assert result.fault is FaultCode.PACKET_BOUNDS


class TestPackRoundtrip:
    def test_roundtrip(self):
        values = [0, 1, 0xFFFF, 0x1234, 0xFF00]
        packet = pack_words(values)
        assert [get_word(packet, i) for i in range(word_count(packet))] == values

    def test_pack_rejects_oversized(self):
        with pytest.raises(ValueError):
            pack_words([0x10000])

    def test_pack_rejects_negative(self):
        with pytest.raises(ValueError):
            pack_words([-1])

    def test_words_of_empty(self):
        assert pack_words([]) == b""
        assert word_count(b"") == 0
