"""The example filter programs from the paper, verbatim (figures 3-8, 3-9).

Both operate on Pup packets carried on the 3 Mbit/s Experimental
Ethernet, whose data-link header is 4 bytes (two 16-bit words) with the
packet type in the second word (figure 3-7):

    word 0  EtherDst | EtherSrc (one byte each)
    word 1  EtherType            (2 = Pup)
    word 2  PupLength
    word 3  HopCount | PupType
    word 4  Pup identifier (high)
    word 5  Pup identifier (low)
    word 6  DstNet | DstHost
    word 7  DstSocket (high)
    word 8  DstSocket (low)
    word 9  SrcNet | SrcHost
    word 10 SrcSocket (high)
    word 11 SrcSocket (low)
    word 12 first data word

These constants are used by tests and by the figure 3-8/3-9 benchmark,
and double as executable documentation of the language.
"""

from __future__ import annotations

from .program import FilterProgram, asm

__all__ = [
    "ETHERTYPE_PUP_3MB",
    "figure_3_8_pup_type_range",
    "figure_3_9_pup_socket_35",
    "pup_socket_filter",
]

ETHERTYPE_PUP_3MB = 2
"""Experimental-Ethernet type value for Pup (figure 3-8's comment)."""


def figure_3_8_pup_type_range() -> FilterProgram:
    """Figure 3-8: accept Pup packets with 1 <= PupType <= 100.

    Original C initializer::

        struct enfilter f = {
            10, 12,                       /* priority and length */
            PUSHWORD+1, PUSHLIT | EQ, 2,  /* packet type == PUP */
            PUSHWORD+3, PUSH00FF | AND,   /* mask low byte */
            PUSHZERO | GT,                /* PupType > 0 */
            PUSHWORD+3, PUSH00FF | AND,   /* mask low byte */
            PUSHLIT | LE, 100,            /* PupType <= 100 */
            AND,                          /* 0 < PupType <= 100 */
            AND                           /* && packet type == PUP */
        };
    """
    return FilterProgram(
        asm(
            ("PUSHWORD", 1), ("PUSHLIT", "EQ", ETHERTYPE_PUP_3MB),
            ("PUSHWORD", 3), ("PUSH00FF", "AND"),
            ("PUSHZERO", "GT"),
            ("PUSHWORD", 3), ("PUSH00FF", "AND"),
            ("PUSHLIT", "LE", 100),
            "AND",
            "AND",
        ),
        priority=10,
    )


def figure_3_9_pup_socket_35() -> FilterProgram:
    """Figure 3-9: accept Pup packets with DstSocket == 35, short-circuited.

    "The DstSocket field is checked before the packet type field, since
    in most packets the DstSocket is likely not to match and so the
    short-circuit operation will exit immediately."

    Original C initializer::

        struct enfilter f = {
            10, 8,                           /* priority and length */
            PUSHWORD+8, PUSHLIT | CAND, 35,  /* low word of socket == 35 */
            PUSHWORD+7, PUSHZERO | CAND,     /* high word of socket == 0 */
            PUSHWORD+1, PUSHLIT | EQ, 2      /* packet type == Pup */
        };
    """
    return FilterProgram(
        asm(
            ("PUSHWORD", 8), ("PUSHLIT", "CAND", 35),
            ("PUSHWORD", 7), ("PUSHZERO", "CAND"),
            ("PUSHWORD", 1), ("PUSHLIT", "EQ", ETHERTYPE_PUP_3MB),
        ),
        priority=10,
    )


def pup_socket_filter(socket: int) -> FilterProgram:
    """Figure 3-9 generalized to any 32-bit Pup destination socket."""
    high = (socket >> 16) & 0xFFFF
    low = socket & 0xFFFF
    return FilterProgram(
        asm(
            ("PUSHWORD", 8), ("PUSHLIT", "CAND", low),
            ("PUSHWORD", 7), ("PUSHLIT", "CAND", high),
            ("PUSHWORD", 1), ("PUSHLIT", "EQ", ETHERTYPE_PUP_3MB),
        ),
        priority=10,
    )
