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
    "encode_pup",
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
_FRONT = struct.Struct(">HBBI")        # length to identifier
_U16 = struct.Struct(">H")

_FOLD_BYTES = 1024
"""Longest input :func:`pup_checksum` folds in one piece: its 32-bit
lanes hold 2^19 at most before folding, so 2^24 after summing 32."""
_EVEN_WORDS = int.from_bytes(b"\x00\x00\xff\xff" * (_FOLD_BYTES // 4), "big")
_ODD_WORDS_X4 = _EVEN_WORDS << 2
_FOLDS = tuple((width, (1 << width) - 1) for width in (4096, 2048, 1024, 512, 256))
_EVEN_LANES = int.from_bytes((bytes(4) + b"\xff" * 4) * 4, "big")
_TWO64_IS_16 = (1 << 64) - 16


def pup_checksum(data: bytes) -> int:
    """Pup's add-and-left-cycle ones-complement checksum over 16-bit
    words (never yields 0xFFFF, which is reserved for "none").

    Ones-complement addition with end-around carry is addition mod
    2^16 - 1, and a 1-bit left cycle is a doubling, so the checksum is
    the sum of each word times 2^((j + 1) mod 16) mod 0xFFFF, where j
    counts words from the last one (j = 0); the final ``% 0xFFFF`` also
    folds the loop's 0xFFFF to 0.  ``data`` is any bytes-like object.

    Read as one big-endian integer (an odd byte count pads a zero byte
    below), word j sits at bit 16j.  Masking keeps the even-j words in
    the low half of 32-bit lanes, doubled, and the odd-j words beside
    them times four.  Halving folds sum every lane whose index agrees
    mod 8 into lane k of eight, with no carry between lanes, so lane k
    holds the words of class 2k and 2k + 1 and wants weight 4^k.  Lanes
    2s and 2s + 1 (times 4) go into 64-bit slot s, and reducing mod
    2^64 - 16 reads 2^64 as 16 = 4^2: exact, since the weighted sum is
    under 2^47.  Longer inputs are summed a ``_FOLD_BYTES`` piece at a
    time: a whole piece is 512 words, a multiple of 16, so only the last
    piece's length shifts the weights of the words before it.
    """
    n = len(data)
    if n > _FOLD_BYTES:
        total = 0
        for start in range(0, n, _FOLD_BYTES):
            piece = data[start : start + _FOLD_BYTES]
            total = (total << ((len(piece) + 1) // 2 % 16)) + pup_checksum(piece)
        return total % 0xFFFF
    x = int.from_bytes(data, "big") << 8 * (n % 2)
    lanes = ((x & _EVEN_WORDS) << 1) + ((x >> 14) & _ODD_WORDS_X4)
    for width, mask in _FOLDS:
        lanes = (lanes & mask) + (lanes >> width)
    slots = (lanes & _EVEN_LANES) + (((lanes >> 32) & _EVEN_LANES) << 2)
    return slots % _TWO64_IS_16 % 0xFFFF


def pup_word_base(link: LinkSpec) -> int:
    """Packet word index where the Pup header starts, for filters.

    2 on the 3 Mb/s Experimental Ethernet (figure 3-7's numbering),
    7 on the 10 Mb/s Ethernet the BSP measurements used.
    """
    return link.header_length // 2


_ADDRESS_FIELDS = (("net", 8), ("host", 8), ("socket", 32))


@dataclass(frozen=True)
class PupAddress:
    """A Pup endpoint: 8-bit network, 8-bit host, 32-bit socket."""

    net: int
    host: int
    socket: int

    def __post_init__(self) -> None:
        for name, bits in _ADDRESS_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value < 1 << bits:
                raise PupError(f"{name} {value!r} is not a {bits}-bit integer")


def encode_pup(
    pup_type: int,
    identifier: int,
    dst: PupAddress,
    src: PupAddress,
    data: bytes = b"",
    *,
    hop_count: int = 0,
    with_checksum: bool = False,
) -> bytes:
    """The Pup carrying ``data``: header, data and checksum word.

    :meth:`PupHeader.encode` is this with its own fields; a sender that
    has the fields at hand calls it without building a header.
    """
    if len(data) > PUP_MAX_DATA:
        raise PupError(f"{len(data)} bytes exceeds Pup data maximum")
    try:
        head = _HEADER.pack(
            PUP_HEADER_BYTES + len(data) + PUP_CHECKSUM_BYTES,
            hop_count, pup_type, identifier,
            dst.net, dst.host, dst.socket, src.net, src.host, src.socket,
        )
    except struct.error as exc:
        raise PupError(
            f"hop count {hop_count!r}, type {pup_type!r} or "
            f"identifier {identifier!r} does not fit its field: {exc}"
        ) from None
    body = head + data
    return body + _U16.pack(pup_checksum(body) if with_checksum else NO_CHECKSUM)


_ADDRESS_PAIRS: dict[bytes, tuple[PupAddress, PupAddress]] = {}
"""Decoded (destination, source) pairs by their 12 header bytes, so a
conversation's frames share two addresses instead of building and
range-checking two per frame.  Only equal, immutable values are
shared, so what the table holds changes no result."""

_ADDRESS_PAIRS_LIMIT = 256
"""Entries :data:`_ADDRESS_PAIRS` keeps (~340 bytes each); pairs
seen after it fills are built per frame."""


@dataclass(frozen=True)
class PupHeader:
    """A decoded Pup (header fields; data travels separately)."""

    pup_type: int
    identifier: int
    dst: PupAddress
    src: PupAddress
    hop_count: int = 0

    def encode(self, data: bytes, *, with_checksum: bool = False) -> bytes:
        return encode_pup(
            self.pup_type, self.identifier, self.dst, self.src, data,
            hop_count=self.hop_count, with_checksum=with_checksum,
        )

    @classmethod
    def decode(cls, packet: bytes) -> tuple["PupHeader", bytes]:
        """Parse; returns (header, data).  Verifies the checksum when
        one is present."""
        if len(packet) < PUP_HEADER_BYTES + PUP_CHECKSUM_BYTES:
            raise PupError("packet shorter than a minimal Pup")
        length, hop_count, pup_type, identifier = _FRONT.unpack_from(packet)
        if length < PUP_HEADER_BYTES + PUP_CHECKSUM_BYTES or length > len(packet):
            raise PupError(f"bad Pup length {length}")
        (checksum,) = _U16.unpack_from(packet, length - 2)
        if checksum != NO_CHECKSUM and checksum != pup_checksum(
            packet[: length - 2]
        ):
            raise PupError("Pup checksum mismatch")
        key = bytes(packet[8:PUP_HEADER_BYTES])
        addresses = _ADDRESS_PAIRS.get(key)
        if addresses is None:
            dst_net, dst_host, dst_socket, src_net, src_host, src_socket = (
                _HEADER.unpack_from(packet)[4:]
            )
            addresses = (
                PupAddress(net=dst_net, host=dst_host, socket=dst_socket),
                PupAddress(net=src_net, host=src_host, socket=src_socket),
            )
            if len(_ADDRESS_PAIRS) < _ADDRESS_PAIRS_LIMIT:
                _ADDRESS_PAIRS[key] = addresses
        # Every field came from ``struct`` within its width, so the
        # frozen __init__'s per-field ``object.__setattr__`` is skipped.
        header = object.__new__(cls)
        header.__dict__.update(
            pup_type=pup_type,
            identifier=identifier,
            dst=addresses[0],
            src=addresses[1],
            hop_count=hop_count,
        )
        return header, packet[PUP_HEADER_BYTES : length - 2]
