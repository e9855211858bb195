"""The dispatch tree read as a table: a reference model.

``repro.core.irgen`` compiles a :class:`~repro.core.opt.DispatchTree`
into one hash probe over leaf chains; these functions read the same
tree, and a :class:`~repro.core.opt.NecessaryTest`, directly, so tests
can hold the tree to the linear scan without going through generated
code.
"""

from __future__ import annotations

from repro.core.opt import DispatchTree, NecessaryTest, SetEntry
from repro.core.words import get_word


def matches(test: NecessaryTest, packet: bytes) -> bool:
    """Whether ``packet`` passes ``test``; a packet too short for the
    word never does."""
    try:
        return (get_word(packet, test.index) & test.mask) == test.value
    except IndexError:
        return False


def depth(tree: DispatchTree) -> int:
    """Probes on the way to a leaf: 1 for a root that probes, 0 for a
    set of one chain."""
    return 0 if tree.discriminant is None else 1


def lookup(tree: DispatchTree, packet: bytes) -> tuple[SetEntry, ...]:
    """Entries worth evaluating on ``packet``, in application order:
    every filter the probe did not rule out."""
    if tree.discriminant is None:
        return tree.entries
    index, mask = tree.discriminant
    try:
        value = get_word(packet, index) & mask
    except IndexError:
        # Packet too short for the field: every bucketed filter's
        # necessary PUSHWORD would fault, so only fallbacks apply.
        return tree.fallback.entries
    return tree.buckets.get(value, tree.fallback).entries
