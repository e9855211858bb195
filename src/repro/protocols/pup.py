"""Pup — the PARC Universal Packet of figure 3-7 and section 5.1.

"At Stanford, almost all of the Pup protocols were implemented for
Unix, based entirely on the packet filter."  Pup is the protocol the
paper's example filters select on, so the header layout here follows
figure 3-7 word for word:

    +--------+--------+
    |    PupLength    |   bytes, including the 20-byte header and the
    +--------+--------+   2-byte checksum
    |HopCount|PupType |
    +--------+--------+
    |  Pup identifier |   32 bits
    |                 |
    +--------+--------+
    | DstNet |DstHost |
    +--------+--------+
    |    DstSocket    |   32 bits
    |                 |
    +--------+--------+
    | SrcNet |SrcHost |
    +--------+--------+
    |    SrcSocket    |   32 bits
    |                 |
    +--------+--------+
    |      Data       |   0..532 bytes (so a maximal Pup is 554 bytes;
    +--------+--------+   framed on Ethernet that is the paper's
    |    Checksum     |   "maximum packet size of 568 bytes")
    +--------+--------+

The checksum is Pup's add-and-left-cycle ones-complement sum;
0xFFFF means "unchecksummed", which the Stanford implementations used
for local traffic and which keeps parity with the unchecksummed VMTP
measurements.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass

from ..net.ethernet import LinkSpec

__all__ = [
    "PupAddress",
    "PupHeader",
    "PupError",
    "PUP_HEADER_BYTES",
    "PUP_CHECKSUM_BYTES",
    "PUP_MAX_DATA",
    "PUP_MAX_BYTES",
    "NO_CHECKSUM",
    "pup_checksum",
    "pup_word_base",
]

PUP_HEADER_BYTES = 20
PUP_CHECKSUM_BYTES = 2
PUP_MAX_DATA = 532
PUP_MAX_BYTES = PUP_HEADER_BYTES + PUP_MAX_DATA + PUP_CHECKSUM_BYTES  # 554
NO_CHECKSUM = 0xFFFF


class PupError(ValueError):
    """Malformed Pup packet."""


_HEADER = struct.Struct(">HBBIBBIBBI")  # figure 3-7, length to SrcSocket
_U16 = struct.Struct(">H")
_SWAP_WORDS = sys.byteorder == "little"


def pup_checksum(data: bytes) -> int:
    """Pup's add-and-left-cycle ones-complement checksum over 16-bit
    words (never yields 0xFFFF, which is reserved for "none").

    Ones-complement addition with end-around carry is addition mod
    2^16 - 1, and a 1-bit left cycle is a doubling, so over n words the
    checksum is sum(w[i] * 2^((n - i) mod 16)) mod 0xFFFF.  Words whose
    index agrees mod 16 share a weight, so sixteen C-level lane sums do
    the whole packet (a lane past the last word sums to 0), and the
    final ``% 0xFFFF`` folds the loop's 0xFFFF to 0 by itself.
    """
    if len(data) % 2:
        data = data + b"\x00"
    words = array("H", data)
    if _SWAP_WORDS:
        words.byteswap()
    n = len(words)
    total = 0
    for lane in range(16):
        total += sum(words[lane::16]) << ((n - lane) % 16)
    return total % 0xFFFF


def pup_word_base(link: LinkSpec) -> int:
    """Packet word index where the Pup header starts, for filters.

    2 on the 3 Mb/s Experimental Ethernet (figure 3-7's numbering),
    7 on the 10 Mb/s Ethernet the BSP measurements used.
    """
    return link.header_length // 2


@dataclass(frozen=True)
class PupAddress:
    """A Pup endpoint: 8-bit network, 8-bit host, 32-bit socket."""

    net: int
    host: int
    socket: int

    def __post_init__(self) -> None:
        if not 0 <= self.net <= 0xFF:
            raise PupError(f"net {self.net} is not 8 bits")
        if not 0 <= self.host <= 0xFF:
            raise PupError(f"host {self.host} is not 8 bits")
        if not 0 <= self.socket <= 0xFFFFFFFF:
            raise PupError(f"socket {self.socket} is not 32 bits")


@dataclass(frozen=True)
class PupHeader:
    """A decoded Pup (header fields; data travels separately)."""

    pup_type: int
    identifier: int
    dst: PupAddress
    src: PupAddress
    hop_count: int = 0

    def encode(self, data: bytes, *, with_checksum: bool = False) -> bytes:
        if len(data) > PUP_MAX_DATA:
            raise PupError(f"{len(data)} bytes exceeds Pup data maximum")
        length = PUP_HEADER_BYTES + len(data) + PUP_CHECKSUM_BYTES
        dst, src = self.dst, self.src
        try:
            head = _HEADER.pack(
                length, self.hop_count, self.pup_type, self.identifier,
                dst.net, dst.host, dst.socket, src.net, src.host, src.socket,
            )
        except struct.error as exc:
            raise PupError(
                f"hop count {self.hop_count!r}, type {self.pup_type!r} or "
                f"identifier {self.identifier!r} does not fit its field: {exc}"
            ) from None
        body = head + data
        checksum = pup_checksum(body) if with_checksum else NO_CHECKSUM
        return body + _U16.pack(checksum)

    @classmethod
    def decode(cls, packet: bytes) -> tuple["PupHeader", bytes]:
        """Parse; returns (header, data).  Verifies the checksum when
        one is present."""
        if len(packet) < PUP_HEADER_BYTES + PUP_CHECKSUM_BYTES:
            raise PupError("packet shorter than a minimal Pup")
        (length, hop_count, pup_type, identifier, dst_net, dst_host,
         dst_socket, src_net, src_host, src_socket) = _HEADER.unpack_from(packet)
        if length < PUP_HEADER_BYTES + PUP_CHECKSUM_BYTES or length > len(packet):
            raise PupError(f"bad Pup length {length}")
        (checksum,) = _U16.unpack_from(packet, length - 2)
        if checksum != NO_CHECKSUM:
            expected = pup_checksum(packet[: length - 2])
            if checksum != expected:
                raise PupError("Pup checksum mismatch")
        header = cls(
            pup_type=pup_type,
            identifier=identifier,
            dst=PupAddress(net=dst_net, host=dst_host, socket=dst_socket),
            src=PupAddress(net=src_net, host=src_host, socket=src_socket),
            hop_count=hop_count,
        )
        return header, packet[PUP_HEADER_BYTES : length - 2]
