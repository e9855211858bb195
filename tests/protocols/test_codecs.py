"""Codec tests: IP, UDP, TCP, Pup, VMTP, RARP headers round-trip and
reject malformed input."""

import gc
import random
import sys

import pytest
from hypothesis import given, strategies as st

from repro.protocols.ip import (
    IPError,
    IPHeader,
    PROTO_TCP,
    PROTO_UDP,
    format_ip,
    internet_checksum,
    ip_address,
)
from repro.protocols.pup import (
    NO_CHECKSUM,
    PUP_MAX_DATA,
    PupAddress,
    PupError,
    PupHeader,
    pup_checksum,
)
from repro.protocols.rarp import RARPError, RARPPacket
from repro.protocols.tcp import TCPError, TCPFlags, TCPSegment
from repro.protocols.udp import UDPError, UDPHeader
from repro.protocols.vmtp import (
    VMTPError,
    VMTPKind,
    VMTPPacket,
    segment_message,
    MessageAssembler,
)


def reference_pup_checksum(data: bytes) -> int:
    """The per-word add-and-left-cycle loop, kept as the oracle."""
    total = 0
    if len(data) % 2:
        data = data + b"\x00"
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
        total = ((total << 1) | (total >> 15)) & 0xFFFF  # left cycle
    if total == NO_CHECKSUM:
        total = 0
    return total


def reference_internet_checksum(data: bytes) -> int:
    """The per-word RFC 1071 loop, kept as the oracle."""
    total = 0
    if len(data) % 2:
        data = data + b"\x00"
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


EDGE_INPUTS = [
    pytest.param(data, id=name)
    for name, data in (
        ("empty", b""),
        ("one-byte", b"\x01"),
        ("one-0xff", b"\xff"),
        ("odd-3", b"\xab\xcd\xef"),
        ("odd-553", bytes(range(256)) * 2 + bytes(41)),
        ("zeros-554", bytes(554)),
        ("ones-554", b"\xff" * 554),
        ("ones-555", b"\xff" * 555),
        ("word-fffe", b"\xff\xfe"),
        ("word-ffff", b"\xff\xff"),
        ("fffe-then-0001", b"\xff\xfe\x00\x01"),
        ("fffe-x17", b"\xff\xfe" * 17),
        ("random-554", random.Random(554).randbytes(554)),
    )
]

# Recorded from the per-word loops; (pup, internet) for each input.
KNOWN_ANSWERS = [
    pytest.param(b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7", (0x51F7, 0x220D), id="rfc1071"),
    pytest.param(bytes(range(256)) * 2 + b"\x2a", (0x4BF8, 0x5580), id="513-bytes"),
    pytest.param(b"\xff" * 554, (0x0, 0x0), id="ones-554"),
]


def _line_events(function, *args) -> int:
    """Python line events executed by ``function(*args)`` and whatever
    Python it calls."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    # A cyclic collection inside the call would run unrelated Python
    # finalizers (``Connection.__del__``, say) and count their lines.
    collecting = gc.isenabled()
    gc.disable()
    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        function(*args)
    finally:
        sys.settrace(outer)
        if collecting:
            gc.enable()
    return count


class TestChecksumsAgainstTheLoops:
    @given(st.binary(max_size=1500))
    def test_equal_to_the_reference_loops(self, data):
        assert pup_checksum(data) == reference_pup_checksum(data)
        assert internet_checksum(data) == reference_internet_checksum(data)

    @pytest.mark.parametrize("data", EDGE_INPUTS)
    def test_edge_cases(self, data):
        assert pup_checksum(data) == reference_pup_checksum(data)
        assert internet_checksum(data) == reference_internet_checksum(data)

    @pytest.mark.parametrize("data, expected", KNOWN_ANSWERS)
    def test_known_answers(self, data, expected):
        assert (pup_checksum(data), internet_checksum(data)) == expected
        assert (
            reference_pup_checksum(data), reference_internet_checksum(data)
        ) == expected

    def test_pup_checksum_does_no_per_word_work(self):
        """A count guard, not a timing one: the line events a minimal
        and a maximal Pup's checksum execute are the same, so a loop
        over words cannot come back unnoticed."""
        address = PupAddress(net=1, host=5, socket=35)
        header = PupHeader(pup_type=1, identifier=1, dst=address, src=address)
        short = header.encode(b"", with_checksum=True)
        full = header.encode(bytes(range(256)) * 2 + bytes(20), with_checksum=True)
        assert (len(short), len(full)) == (22, 554)
        counts = [_line_events(pup_checksum, pup[:-2]) for pup in (short, full)]
        # 40 on CPython 3.11; the slack absorbs how other versions count
        # a loop's exit, while one word per iteration would be > 1 000.
        assert counts[0] == counts[1] <= 48


class TestIPAddresses:
    def test_parse_format_roundtrip(self):
        assert format_ip(ip_address("10.1.2.3")) == "10.1.2.3"

    def test_bad_addresses(self):
        for bad in ("10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises((IPError, ValueError)):
                ip_address(bad)


class TestInternetChecksum:
    def test_verifies_to_zero(self):
        data = b"\x45\x00\x00\x1c"
        checksum = internet_checksum(data)
        padded = data + checksum.to_bytes(2, "big")
        assert internet_checksum(padded) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


class TestIPHeader:
    def test_roundtrip(self):
        header = IPHeader(
            src=ip_address("10.0.0.1"),
            dst=ip_address("10.0.0.2"),
            protocol=PROTO_UDP,
            identification=7,
        )
        datagram = header.encode(b"payload bytes")
        decoded, payload = IPHeader.decode(datagram)
        assert payload == b"payload bytes"
        assert decoded.src == header.src
        assert decoded.dst == header.dst
        assert decoded.protocol == PROTO_UDP
        assert decoded.ihl == 5

    def test_options_extend_ihl(self):
        header = IPHeader(src=1, dst=2, protocol=PROTO_TCP, options=b"\x01" * 6)
        datagram = header.encode(b"")
        decoded, _ = IPHeader.decode(datagram)
        assert decoded.ihl == 7  # 20 + 8 (padded options) = 28 bytes
        assert decoded.options == b"\x01" * 6 + b"\x00\x00"

    def test_checksum_verified(self):
        datagram = bytearray(IPHeader(src=1, dst=2, protocol=17).encode(b""))
        datagram[12] ^= 0xFF  # corrupt the source address
        with pytest.raises(IPError, match="checksum"):
            IPHeader.decode(bytes(datagram))

    def test_truncated(self):
        with pytest.raises(IPError):
            IPHeader.decode(b"\x45\x00")

    def test_wrong_version(self):
        datagram = bytearray(IPHeader(src=1, dst=2, protocol=17).encode(b""))
        datagram[0] = (6 << 4) | 5
        with pytest.raises(IPError, match="version"):
            IPHeader.decode(bytes(datagram))

    @given(st.binary(max_size=64), st.binary(max_size=20))
    def test_roundtrip_property(self, payload, raw_options):
        options = raw_options[: len(raw_options) - len(raw_options) % 1]
        if len(IPHeader(src=1, dst=2, protocol=6, options=options).padded_options) > 40:
            return
        header = IPHeader(src=1, dst=2, protocol=6, options=options)
        decoded, out = IPHeader.decode(header.encode(payload))
        assert out == payload


class TestUDPHeader:
    def test_roundtrip(self):
        header = UDPHeader(src_port=1234, dst_port=53)
        decoded, payload = UDPHeader.decode(header.encode(b"query"))
        assert payload == b"query"
        assert decoded.src_port == 1234
        assert decoded.dst_port == 53
        assert not decoded.with_checksum

    def test_checksummed_flagged(self):
        header = UDPHeader(src_port=1, dst_port=2, with_checksum=True)
        decoded, _ = UDPHeader.decode(header.encode(b"x"))
        assert decoded.with_checksum

    def test_truncated(self):
        with pytest.raises(UDPError):
            UDPHeader.decode(b"\x00\x01")


class TestTCPSegment:
    def test_roundtrip(self):
        segment = TCPSegment(
            src_port=2000, dst_port=9, seq=12345, ack=99,
            flags=TCPFlags.ACK | TCPFlags.PSH, window=2048,
            payload=b"stream bytes",
        )
        decoded = TCPSegment.decode(segment.encode())
        assert decoded == segment

    def test_flag_helpers(self):
        syn = TCPSegment(1, 2, 0, 0, TCPFlags.SYN)
        assert syn.is_syn and not syn.is_ack and not syn.is_fin

    def test_truncated(self):
        with pytest.raises(TCPError):
            TCPSegment.decode(b"\x00" * 10)


class TestPup:
    def address(self):
        return PupAddress(net=1, host=5, socket=35)

    def test_roundtrip(self):
        header = PupHeader(
            pup_type=16, identifier=1000,
            dst=self.address(), src=PupAddress(net=1, host=6, socket=99),
        )
        decoded, data = PupHeader.decode(header.encode(b"stream data"))
        assert data == b"stream data"
        assert decoded.pup_type == 16
        assert decoded.identifier == 1000
        assert decoded.dst == self.address()

    def test_checksummed_roundtrip(self):
        header = PupHeader(
            pup_type=1, identifier=1, dst=self.address(), src=self.address()
        )
        packet = header.encode(b"abc", with_checksum=True)
        decoded, data = PupHeader.decode(packet)
        assert data == b"abc"

    def test_checksum_detects_corruption(self):
        header = PupHeader(
            pup_type=1, identifier=1, dst=self.address(), src=self.address()
        )
        packet = bytearray(header.encode(b"abc", with_checksum=True))
        packet[21] ^= 0x01
        with pytest.raises(PupError, match="checksum"):
            PupHeader.decode(bytes(packet))

    def test_unchecksummed_marker(self):
        header = PupHeader(
            pup_type=1, identifier=1, dst=self.address(), src=self.address()
        )
        packet = header.encode(b"")
        assert packet[-2:] == NO_CHECKSUM.to_bytes(2, "big")

    def test_data_limit(self):
        header = PupHeader(
            pup_type=1, identifier=1, dst=self.address(), src=self.address()
        )
        with pytest.raises(PupError):
            header.encode(bytes(PUP_MAX_DATA + 1))

    def test_field_ranges(self):
        with pytest.raises(PupError):
            PupAddress(net=256, host=0, socket=0)
        with pytest.raises(PupError):
            PupAddress(net=0, host=0, socket=1 << 32)

    def test_checksum_never_returns_reserved_value(self):
        # The add-and-cycle sum maps 0xFFFF to 0 by construction.
        assert pup_checksum(b"\xff\xfe") != NO_CHECKSUM

    @given(st.binary(max_size=PUP_MAX_DATA), st.data())
    def test_any_single_bit_flip_is_caught(self, payload, draw):
        """Every bit after the length word up to the checksum is
        covered: a flip changes one word by 2^k, which moves the sum by
        a power of two, never a multiple of 0xFFFF."""
        header = PupHeader(
            pup_type=1, identifier=7, dst=self.address(), src=self.address()
        )
        packet = bytearray(header.encode(payload, with_checksum=True))
        bit = draw.draw(st.integers(16, 8 * (len(packet) - 2) - 1))
        packet[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(PupError):
            PupHeader.decode(bytes(packet))

    def test_length_word_bit_flips_are_caught(self):
        # A flipped length either overruns the packet, falls below a
        # minimal Pup, or moves the checksum field: checked exhaustively
        # here, because a moved field may land on bytes that read 0xFFFF.
        header = PupHeader(
            pup_type=1, identifier=7, dst=self.address(), src=self.address()
        )
        packet = header.encode(b"stream data", with_checksum=True)
        for bit in range(16):
            flipped = bytearray(packet)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            with pytest.raises(PupError):
                PupHeader.decode(bytes(flipped))

    @pytest.mark.parametrize(
        "field, value",
        [("hop_count", 256), ("pup_type", 256), ("identifier", 1 << 32)],
    )
    def test_out_of_range_header_field_is_a_pup_error(self, field, value):
        fields = dict(pup_type=1, identifier=1, hop_count=0)
        fields[field] = value
        header = PupHeader(dst=self.address(), src=self.address(), **fields)
        with pytest.raises(PupError, match=str(value)):
            header.encode(b"data")


class TestVMTP:
    def test_roundtrip(self):
        packet = VMTPPacket(
            kind=VMTPKind.REQUEST, client=7, server=35, transaction=3,
            seg_index=2, seg_count=5, total_length=5000,
            segment_mask=0x001C, payload=b"chunk",
        )
        assert VMTPPacket.decode(packet.encode()) == packet

    def test_truncated(self):
        with pytest.raises(VMTPError):
            VMTPPacket.decode(b"\x01\x00")

    def test_unknown_kind(self):
        with pytest.raises(VMTPError):
            VMTPPacket.decode(b"\x7f" + bytes(13))

    def test_segmentation_roundtrip(self):
        message = bytes(range(256)) * 20  # 5120 bytes -> 5 segments
        group = segment_message(VMTPKind.RESPONSE, 1, 2, 3, message)
        assert len(group) == 5
        assembler = MessageAssembler()
        result = None
        for packet in reversed(group):  # arbitrary arrival order
            result = assembler.add(packet)
        assert result == message

    def test_empty_message_is_one_segment(self):
        group = segment_message(VMTPKind.REQUEST, 1, 2, 3, b"")
        assert len(group) == 1
        assert group[0].payload == b""

    def test_missing_mask(self):
        group = segment_message(VMTPKind.RESPONSE, 1, 2, 3, bytes(3000))
        assembler = MessageAssembler()
        assembler.add(group[1])
        assert assembler.missing_mask() == 0b101

    def test_group_size_limit(self):
        with pytest.raises(VMTPError):
            segment_message(VMTPKind.REQUEST, 1, 2, 3, bytes(17 * 1024))


class TestRARP:
    def test_roundtrip(self):
        packet = RARPPacket(
            op=3, sender_hw=b"\x01" * 6, sender_ip=0,
            target_hw=b"\x02" * 6, target_ip=ip_address("10.0.0.9"),
        )
        assert RARPPacket.decode(packet.encode()) == packet

    def test_truncated(self):
        with pytest.raises(RARPError):
            RARPPacket.decode(b"\x00" * 10)

    def test_wrong_sizes_rejected(self):
        packet = bytearray(
            RARPPacket(3, b"\x01" * 6, 0, b"\x02" * 6, 0).encode()
        )
        packet[4] = 1  # hlen != 6
        with pytest.raises(RARPError):
            RARPPacket.decode(bytes(packet))
