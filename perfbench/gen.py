"""Seeded input generators.

Everything a workload feeds the program comes from here, as a pure
function of ``--seed``.  The generators are deliberately private to the
benchmark (nothing is imported from ``benchmarks/`` or
``repro.bench``): those modules are scheduled for rewriting, and the
load must not change under them.
"""

from __future__ import annotations

import random

from repro.core import compile_expr, word
from repro.core.words import pack_words

__all__ = ["AclRule", "acl_rules", "fresh_rule", "acl_round", "payload"]

BASE_PORT = 1024
"""Destination port of rule 0; rule *i* tests ``BASE_PORT + i``, so the
set has one perfect discriminant, as real ACLs usually do."""

DEEPEST_WORD = 6
"""Highest packet word any rule tests (the destination port)."""

# Share of a traffic round that matches no rule / is cut short.
NO_MATCH_SHARE = 0.10
TRUNCATED_SHARE = 0.02


class AclRule:
    """One 5-tuple rule: the words it matches and its filter program.

    Words 0-1 source address, 2-3 destination address, 4 protocol,
    5 source port, 6 destination port.
    """

    __slots__ = ("words", "program")

    def __init__(self, words: tuple[int, ...]) -> None:
        self.words = words
        src_hi, src_lo, dst_hi, dst_lo, proto, sport, dport = words
        # Discriminant first, as a hand-written ACL would put it: the
        # linear reference engine then rejects in one test.
        self.program = compile_expr(
            (word(6) == dport)
            & (word(4) == proto)
            & (word(5) == sport)
            & (word(0) == src_hi)
            & (word(1) == src_lo)
            & (word(2) == dst_hi)
            & (word(3) == dst_lo),
            priority=10,
        )

    def packet(self, trailer: int) -> bytes:
        """A packet this rule accepts (``trailer`` is an untested word)."""
        return pack_words([*self.words, trailer])


def _rule(rng: random.Random, index: int, sport: int | None = None) -> AclRule:
    return AclRule(
        (
            rng.randrange(1 << 16),
            rng.randrange(1 << 16),
            rng.randrange(1 << 16),
            rng.randrange(1 << 16),
            rng.choice((6, 17)),
            rng.randrange(1024, 1 << 16) if sport is None else sport,
            BASE_PORT + index,
        )
    )


def acl_rules(count: int, seed: int) -> list[AclRule]:
    """``count`` rules with distinct destination ports."""
    rng = random.Random(f"acl-rules:{seed}")
    return [_rule(rng, index) for index in range(count)]


def fresh_rule(rng: random.Random, index: int, serial: int) -> AclRule:
    """A replacement for slot ``index`` that no earlier call returned.

    ``serial`` (the caller's running re-bind count) becomes the source
    port, so two replacements can never be equal by value and every
    value-keyed memo in the compile path misses.
    """
    if not 0 <= serial < (1 << 16):
        raise ValueError("serial must fit a 16-bit word")
    return _rule(rng, index, sport=serial)


def acl_round(rules: list[AclRule], seed: int) -> tuple[list[bytes], list[int]]:
    """One round of traffic: every rule's packet once, in seeded order,
    with no-match and truncated packets mixed in.

    Returns ``(packets, slots)``; ``slots[i]`` is the rule index packet
    ``i`` was built to match, or -1.  No-match packets alternate between
    an unknown destination port (rejected at the dispatch probe) and a
    known port with a wrong source port (rejected inside the rule's
    chain); truncated packets are a matching packet cut to between 1
    and 13 bytes, i.e. below the deepest tested word, odd lengths
    included.
    """
    rng = random.Random(f"acl-round:{seed}")
    order = list(range(len(rules)))
    rng.shuffle(order)
    total = round(len(rules) / (1.0 - NO_MATCH_SHARE - TRUNCATED_SHARE))
    truncated = max(1, round(total * TRUNCATED_SHARE))
    no_match = max(1, total - len(rules) - truncated)

    # The rule packets keep their shuffled stride; the rest scatter in.
    packets = [(rules[slot].packet(rng.randrange(1 << 16)), slot) for slot in order]
    extras = []
    for n in range(no_match):
        words = list(rules[rng.randrange(len(rules))].words)
        if n % 2:
            words[5] ^= 0x8000
        else:
            words[6] = BASE_PORT + len(rules) + rng.randrange(1 << 12)
        extras.append(pack_words([*words, 0]))
    for _ in range(truncated):
        whole = rules[rng.randrange(len(rules))].packet(0)
        extras.append(whole[: rng.randrange(1, 2 * DEEPEST_WORD + 2)])
    for extra in extras:
        packets.insert(rng.randrange(len(packets) + 1), (extra, -1))
    return [p for p, _ in packets], [s for _, s in packets]


def payload(nbytes: int, seed: int) -> bytes:
    """``nbytes`` of seeded payload."""
    return random.Random(f"payload:{seed}").randbytes(nbytes)
