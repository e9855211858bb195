"""IPv4 header codec — including options, because variable-length
headers are exactly the case section 7 says the classic filter language
struggles with ("since the IP header may include optional fields, fields
in higher layer protocol headers are not at constant offsets").

Addresses are plain 32-bit integers (use :func:`ip_address` to build
them from dotted notation) and the header checksum is the real RFC 791
ones-complement sum, verified on input by the kernel stack.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "IPHeader",
    "IPError",
    "PROTO_TCP",
    "PROTO_UDP",
    "ip_address",
    "format_ip",
    "internet_checksum",
]

PROTO_TCP = 6
PROTO_UDP = 17

IP_MIN_HEADER = 20


class IPError(ValueError):
    """Malformed IP datagram."""


def ip_address(dotted: str) -> int:
    """``"10.0.0.2"`` -> the 32-bit address as an int."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise IPError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise IPError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def format_ip(address: int) -> str:
    """Inverse of :func:`ip_address`."""
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement sum of 16-bit words.

    2^16 = 1 mod 0xFFFF, so the packet read as one big-endian integer
    is congruent to the sum of its words, and end-around-carry addition
    is addition mod 0xFFFF.  Ones complement has two zeros: the sum is
    +0 only when every word is zero, and any other multiple of 0xFFFF
    sums to -0 (0xFFFF).
    """
    total = int.from_bytes(data, "big") << (8 * (len(data) % 2))
    if total:
        total = total % 0xFFFF or 0xFFFF
    return 0xFFFF - total


@dataclass(frozen=True)
class IPHeader:
    """A decoded IPv4 header (options preserved verbatim)."""

    src: int
    dst: int
    protocol: int
    ttl: int = 64
    identification: int = 0
    tos: int = 0
    options: bytes = b""

    @property
    def header_length(self) -> int:
        return IP_MIN_HEADER + len(self.padded_options)

    @property
    def ihl(self) -> int:
        """Header length in 32-bit words — the field the EXTENDED-language
        filter of :mod:`repro.core.extensions` reads at match time."""
        return self.header_length // 4

    @property
    def padded_options(self) -> bytes:
        pad = (-len(self.options)) % 4
        return self.options + b"\x00" * pad

    def encode(self, payload: bytes) -> bytes:
        """Serialize header + payload into a datagram."""
        total = self.header_length + len(payload)
        if total > 0xFFFF:
            raise IPError(f"datagram of {total} bytes exceeds IPv4 maximum")
        header = bytearray(self.header_length)
        header[0] = (4 << 4) | self.ihl
        header[1] = self.tos
        header[2:4] = total.to_bytes(2, "big")
        header[4:6] = self.identification.to_bytes(2, "big")
        header[6:8] = b"\x00\x00"  # flags/fragment: never fragmented here
        header[8] = self.ttl
        header[9] = self.protocol
        header[10:12] = b"\x00\x00"  # checksum placeholder
        header[12:16] = self.src.to_bytes(4, "big")
        header[16:20] = self.dst.to_bytes(4, "big")
        header[20:] = self.padded_options
        checksum = internet_checksum(bytes(header))
        header[10:12] = checksum.to_bytes(2, "big")
        return bytes(header) + payload

    @classmethod
    def decode(cls, datagram: bytes) -> tuple["IPHeader", bytes]:
        """Parse a datagram; returns (header, payload).

        Raises :class:`IPError` on truncation, bad version, or a
        checksum mismatch.
        """
        if len(datagram) < IP_MIN_HEADER:
            raise IPError("datagram shorter than the minimum IP header")
        version = datagram[0] >> 4
        if version != 4:
            raise IPError(f"IP version {version} is not 4")
        ihl = datagram[0] & 0x0F
        header_length = ihl * 4
        if header_length < IP_MIN_HEADER or len(datagram) < header_length:
            raise IPError(f"bad IHL {ihl}")
        if internet_checksum(datagram[:header_length]) != 0:
            raise IPError("IP header checksum mismatch")
        total_length = int.from_bytes(datagram[2:4], "big")
        if total_length < header_length or total_length > len(datagram):
            raise IPError("bad IP total length")
        header = cls(
            src=int.from_bytes(datagram[12:16], "big"),
            dst=int.from_bytes(datagram[16:20], "big"),
            protocol=datagram[9],
            ttl=datagram[8],
            identification=int.from_bytes(datagram[4:6], "big"),
            tos=datagram[1],
            options=datagram[IP_MIN_HEADER:header_length],
        )
        return header, datagram[header_length:total_length]
