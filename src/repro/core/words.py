"""16-bit word view of packets — the filter language's addressing unit.

The filter language of Mogul/Rashid/Accetta (figure 3-6) addresses the
received packet as an array of 16-bit words, a bias the paper attributes
to "accidents of history" (the Alto and the 3 Mbit experimental Ethernet
were 16-bit-word oriented).  ``PUSHWORD+n`` pushes the *n*-th 16-bit word
of the packet, counting from the first byte of the data-link header.

Words are big-endian (network byte order), matching the wire order the
original VAX implementation saw after ``ntohs``.  A trailing odd byte is
treated as the high byte of a zero-padded final word, mirroring how the
original interpreter read a short-aligned mbuf with a zeroed pad byte.
"""

from __future__ import annotations

__all__ = [
    "WORD_SIZE",
    "get_word",
    "get_byte",
    "pack_words",
]

WORD_SIZE = 2
"""Bytes per filter-language word (the language is 16-bit biased)."""

_U16_MAX = 0xFFFF


def get_word(packet: bytes, index: int) -> int:
    """Return the ``index``-th big-endian 16-bit word of ``packet``.

    Raises :class:`IndexError` if the word is entirely outside the packet
    (the interpreter turns that into a packet rejection, per section 4:
    "it doesn't refer to a field outside the current packet").
    """
    if index < 0:
        raise IndexError(f"negative word index {index}")
    offset = index * WORD_SIZE
    if offset >= len(packet):
        raise IndexError(
            f"word {index} out of range for {len(packet)}-byte packet"
        )
    hi = packet[offset]
    lo = packet[offset + 1] if offset + 1 < len(packet) else 0
    return (hi << 8) | lo


def get_byte(packet: bytes, index: int) -> int:
    """Return the ``index``-th byte (section 7 extension: narrow loads)."""
    if index < 0:
        raise IndexError(f"negative byte index {index}")
    if index >= len(packet):
        raise IndexError(
            f"byte {index} out of range for {len(packet)}-byte packet"
        )
    return packet[index]


def pack_words(words: list[int]) -> bytes:
    """A packet made of ``words``, each big-endian.

    Each value must fit in 16 bits; used heavily by tests and workload
    generators to author packets word-by-word the way the paper's figures
    describe them.
    """
    out = bytearray()
    for i, value in enumerate(words):
        if not 0 <= value <= _U16_MAX:
            raise ValueError(f"word {i} value {value:#x} does not fit in 16 bits")
        out.append(value >> 8)
        out.append(value & 0xFF)
    return bytes(out)
