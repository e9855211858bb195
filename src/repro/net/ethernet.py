"""Ethernet framing for the two data links the paper measures on.

The evaluation uses both the 3 Mbit/s *Experimental* Ethernet (Metcalfe
& Boggs 1976 — one-byte addresses, the network Pup grew up on; figures
3-7/3-8/3-9 assume its 4-byte header) and the 10 Mbit/s DIX Ethernet
(six-byte addresses, 14-byte header).

Frames are plain ``bytes``; a :class:`LinkSpec` describes how to build
and parse the header for its link type, and doubles as the GETINFO
answer of section 3.3 (address length, header length, MTU, broadcast
address, data-link type).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkSpec",
    "ETHERNET_10MB",
    "ETHERNET_3MB",
    "FrameError",
]


class FrameError(ValueError):
    """A frame is malformed for its link type."""


@dataclass(frozen=True)
class LinkSpec:
    """Framing rules and link constants for one data-link type."""

    name: str
    address_length: int    #: bytes per station address
    header_length: int     #: dst + src + type
    max_frame_bytes: int   #: MTU including the data-link header
    bandwidth_bps: int     #: raw signalling rate
    broadcast: bytes       #: the all-stations address

    def encode_header(self, dst: bytes, src: bytes, ethertype: int) -> bytes:
        for label, addr in (("destination", dst), ("source", src)):
            if len(addr) != self.address_length:
                raise FrameError(
                    f"{label} address {addr!r} is not "
                    f"{self.address_length} bytes for {self.name}"
                )
        if not 0 <= ethertype <= 0xFFFF:
            raise FrameError(f"ethertype {ethertype:#x} is not 16 bits")
        return dst + src + ethertype.to_bytes(2, "big")

    def frame(self, dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
        """Build a complete frame; enforces the link MTU."""
        data = self.encode_header(dst, src, ethertype) + payload
        if len(data) > self.max_frame_bytes:
            raise FrameError(
                f"{len(data)}-byte frame exceeds {self.name} maximum "
                f"of {self.max_frame_bytes}"
            )
        return data

    # The accessors test the length themselves — they run several times
    # per frame per station — and call out only to build the error.

    def destination_of(self, frame: bytes) -> bytes:
        if len(frame) < self.header_length:
            raise self._too_short(frame)
        return frame[: self.address_length]

    def source_of(self, frame: bytes) -> bytes:
        if len(frame) < self.header_length:
            raise self._too_short(frame)
        return frame[self.address_length : 2 * self.address_length]

    def ethertype_of(self, frame: bytes) -> int:
        if len(frame) < self.header_length:
            raise self._too_short(frame)
        offset = 2 * self.address_length
        return int.from_bytes(frame[offset : offset + 2], "big")

    def payload_of(self, frame: bytes) -> bytes:
        if len(frame) < self.header_length:
            raise self._too_short(frame)
        return frame[self.header_length :]

    def transmission_time(self, nbytes: int) -> float:
        """Seconds to serialize ``nbytes`` onto the wire."""
        return (nbytes * 8) / self.bandwidth_bps

    def _too_short(self, frame: bytes) -> FrameError:
        return FrameError(
            f"{len(frame)}-byte frame shorter than the {self.name} header"
        )


ETHERNET_10MB = LinkSpec(
    name="ethernet-10mb",
    address_length=6,
    header_length=14,
    max_frame_bytes=1514,
    bandwidth_bps=10_000_000,
    broadcast=b"\xff" * 6,
)
"""The standard 10 Mbit/s Ethernet of the VMTP/TCP measurements."""

ETHERNET_3MB = LinkSpec(
    name="ethernet-3mb",
    address_length=1,
    header_length=4,
    max_frame_bytes=600,
    bandwidth_bps=2_940_000,
    broadcast=b"\x00",
)
"""The 3 Mbit/s Experimental Ethernet of figures 3-7..3-9 (the actual
signalling rate was 2.94 Mbit/s; address 0 is broadcast)."""
